// Disk-resident FITing-Tree: the paper's segment-predict-then-bounded-
// search lookup (Sec 4.1) run against an index file, with every leaf
// access going through the buffer pool, plus a write path. The directory
// (flat array of segment first keys) and segment table stay in memory —
// they are the "index" the paper sizes in Fig 6 — while the sorted
// key/payload pages stay on disk and are cached page-granularly, which is
// exactly the regime the Sec 5 cost model charges in pages.
//
// Leaf addressing is per segment (format v2): segment i's leaves start at
// its own first_leaf_page, so rank r maps to page
// first_leaf_page + (r - start) / leaf_capacity. That indirection is what
// lets CompactSegment rewrite ONE segment by appending its merged leaves
// at EOF and republishing the table + meta (append-and-republish), while
// every other segment's pages stay where they are.
//
// Writes never touch the file in place. Each base segment owns a small
// in-memory delta overlaid on its leaves: the sorted delta buffer of
// {key, payload, tombstone} entries the in-memory engines keep
// (core/delta_buffer.h). Inserts and payload updates land there as live
// entries, deletes of paged keys as tombstones. Reads consult the delta
// first (no I/O), then fall through to the paged lookup. A key's delta is
// its directory floor's, slot 0 also holding the keys below every segment
// (and the whole keyspace of an empty base file), so scans walk slot by
// slot and merge each segment's leaves with its delta through the shared
// scan kernel. Two compaction forms fold deltas back to disk:
//
//   Compact()         full rewrite: scan the merged view, re-segment,
//                     write a temp file, fsync it, atomically rename it
//                     over the original, fsync the directory, reopen.
//   CompactSegment(s) incremental: merge ONE segment's leaves with its
//                     overlay slot, re-segment locally, append the new
//                     leaves + a new segment table at EOF, fsync, then
//                     republish the meta (next generation, other slot)
//                     and fsync again. Crash at any point leaves the
//                     previous generation's meta valid and untouched. On
//                     an empty base file, slot 0's overlay becomes the
//                     file's first segments.
//
// Both write through storage/segment_file.h's one page encoder and file
// writer; this class never sees a page's layout.
//
// Incremental compactions run inside the mutation whose overlay entry
// brings its segment's overlay to Options::compact_threshold_pct percent
// of the segment's length, on the caller's thread: this engine is
// single-threaded by contract, so there is no other thread to hand the
// work to, and queueing it would only defer it to the next mutation.
//
// The lookup shares core::ErrorWindow with StaticFitingTree::Bound, so a
// serialized tree answers every query identically to its in-memory
// counterpart (tested in tests/test_disk_fiting_tree.cc). The paged search
// starts at the page holding the predicted rank and pins a neighbour page
// only when the answer lies past that page's slice of the error window, so
// a lookup whose window fits the predicted page faults exactly one page,
// and the payload is read from that same pin.

#ifndef FITREE_STORAGE_DISK_FITING_TREE_H_
#define FITREE_STORAGE_DISK_FITING_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/io_stats.h"
#include "core/delta_buffer.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "storage/buffer_pool.h"
#include "storage/segment_file.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"
#include "telemetry/trace.h"

namespace fitree::storage {

// Crash-point instrumentation for the compaction paths: the hook fires
// after the named step completes, and a test that kill-9s the process at
// any point must find the index valid on reopen (the durability contract
// EXPERIMENTS.md documents; exercised in tests/test_storage_faults.cc).
enum class CompactPoint : uint8_t {
  kTmpWritten,     // full rewrite: temp file written, NOT yet durable
  kTmpSynced,      // full rewrite: temp fsynced, rename not yet issued
  kRenamed,        // full rewrite: renamed over the original
  kDirSynced,      // full rewrite: directory entry durable — complete
  kAppendWritten,  // incremental: new pages appended, NOT yet durable
  kAppendSynced,   // incremental: appended pages fsynced
  kMetaWritten,    // incremental: next-generation meta written, not synced
  kMetaSynced,     // incremental: republish durable — complete
};

template <typename K>
class DiskFitingTree {
 public:
  using Key = K;
  // Leaf payloads are serialized as 64-bit words (storage/segment_file.h),
  // so the payload type is fixed; the alias is what the IndexApi contract
  // and the Insert/Update signatures below spell it with.
  using Payload = uint64_t;

  struct Options {
    // Buffer-pool capacity in pages; 1.0 * leaf pages means the whole
    // data file fits (plus the handful of non-leaf pages never cached). A
    // point lookup pins one frame at a time: the predicted page, then a
    // neighbour only when the answer lies past that page's slice of the
    // error window.
    size_t cache_pages = 64;
    // Incremental compaction trigger, percent of segment length: the
    // mutation that brings a segment's overlay to max(8, length * pct /
    // 100) entries (an empty base file's one slot: 8) compacts it, with
    // the full Compact() once dead pages reach the live ones.
    // 0 disables the automatic path (CompactSegment stays callable).
    size_t compact_threshold_pct = 0;
    // Test hook, fired after each named compaction step (crash points).
    std::function<void(CompactPoint)> compact_hook;
  };

  // Opens `path`, loads the meta page and segment table, and builds the
  // in-memory directory. Returns nullptr when the file fails validation.
  // Crash leftovers from a full Compact are resolved first: an orphan
  // `path.compact` next to a live target is removed; one WITHOUT a target
  // (the rewrite completed but the swap did not) is adopted by rename.
  static std::unique_ptr<DiskFitingTree<K>> Open(const std::string& path,
                                                 const Options& options = {}) {
    const std::string tmp = path + ".compact";
    struct stat st {};
    const bool have_tmp = ::stat(tmp.c_str(), &st) == 0;
    if (have_tmp) {
      if (::stat(path.c_str(), &st) == 0) {
        std::remove(tmp.c_str());
      } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        return nullptr;
      }
    }
    auto tree = std::unique_ptr<DiskFitingTree<K>>(new DiskFitingTree<K>());
    tree->path_ = path;
    tree->options_ = options;
    if (!tree->Load(path)) return nullptr;
    return tree;
  }

  // Live key count: base file plus pending inserts minus pending deletes.
  size_t size() const { return size_; }
  // Keys in the base file (delta overlay excluded).
  size_t base_size() const { return reader_.meta().key_count; }
  double error() const { return reader_.meta().error; }
  size_t SegmentCount() const { return segments_.size(); }
  uint64_t LeafPageCount() const { return reader_.meta().leaf_page_count; }
  uint64_t FileBytes() const {
    return reader_.page_count() * reader_.page_bytes();
  }
  const std::string& path() const { return path_; }

  // Pending overlay entries (live + tombstones) and completed compactions.
  size_t DeltaEntries() const { return delta_entries_; }
  uint64_t Compactions() const { return compactions_; }
  uint64_t IncrementalCompactions() const { return incremental_compactions_; }

  // True once any page read has failed verification; results after that
  // point are best-effort (lookups report "absent"). Reads are const per
  // the IndexApi contract, so the flag is mutable: a failed page fault
  // inside a const Lookup/ScanRange still has to record itself.
  bool io_error() const { return io_error_; }

  // In-memory index footprint: directory plus segment table plus the delta
  // overlay (the leaf pages are data, cached separately — see
  // CacheCapacityBytes()). The overlay is charged what its buffers hold
  // allocated, slack included.
  size_t IndexSizeBytes() const {
    size_t delta_bytes = 0;
    for (const DeltaBuffer& delta : deltas_) {
      delta_bytes += delta.capacity() * sizeof(DeltaEntry);
    }
    return directory_.MemoryBytes() +
           segments_.size() * sizeof(SegmentRecord<K>) + delta_bytes;
  }
  size_t CacheCapacityBytes() const { return pool_->CapacityBytes(); }

  const IoStats& io() const { return pool_->stats(); }
  void ResetIoStats() { pool_->ResetStats(); }

  // Rank of the first key >= `key` in the BASE FILE (insertion point over
  // the paged keys; the delta overlay has no ranks until a compaction
  // folds it in). Pages are faulted through the buffer pool.
  size_t LowerBound(const K& key) const {
    return SearchBase(FloorSlot(key), key).rank;
  }

  // Payload stored for `key`, or nullopt when absent. The delta overlay
  // overrides the file: a tombstone hides the paged key, a live entry
  // supersedes (or precedes) it. One directory descent serves the delta
  // probe and the paged search.
  std::optional<uint64_t> Lookup(const K& key) const {
    telemetry::ScopedOp telem(telemetry::Engine::kDisk,
                              telemetry::Op::kLookup);
    const size_t floor = FloorSlot(key);
    {
      telemetry::ScopedPhase probe(telemetry::Engine::kDisk,
                                   telemetry::Phase::kDeltaProbe);
      const DeltaBuffer& delta = deltas_[floor == kNoSlot ? 0 : floor];
      const auto it = DeltaPos(delta, key);
      if (it != delta.end() && it->key == key) {
        if (it->tombstone) return std::nullopt;
        return it->value;
      }
    }
    return SearchBase(floor, key).value;
  }

  bool Contains(const K& key) const { return Lookup(key).has_value(); }

  // Inserts `key` -> `value` into the delta overlay. Returns true iff the
  // key was new (set semantics); inserting a key present in the base file
  // or overlay returns false without touching anything. So does every
  // write below whose base-file read fails: a key the tree cannot read is
  // not known to be absent.
  bool Insert(const K& key, const Payload& value) {
    telemetry::ScopedOp telem(telemetry::Engine::kDisk,
                              telemetry::Op::kInsert);
    const size_t slot = DeltaSlot(key);
    DeltaBuffer& delta = deltas_[slot];
    const auto it = DeltaPos(delta, key);
    if (it != delta.end() && it->key == key) {
      if (!it->tombstone) return false;
      // Delete-then-reinsert of a paged key: resurrect as a live override.
      *it = DeltaEntry{key, value, false};
      ++size_;
      return true;
    }
    const BaseHit base = BaseLookup(key);
    if (base.failed || base.value.has_value()) return false;
    delta.insert(it, DeltaEntry{key, value, false});
    ++delta_entries_;
    ++size_;
    MaybeCompact(slot);
    return true;
  }

  // Replaces the payload of a present key (a paged key gets a live
  // override in the overlay). Returns false when absent.
  bool Update(const K& key, const Payload& value) {
    telemetry::ScopedOp telem(telemetry::Engine::kDisk,
                              telemetry::Op::kUpdate);
    const size_t slot = DeltaSlot(key);
    DeltaBuffer& delta = deltas_[slot];
    const auto it = DeltaPos(delta, key);
    if (it != delta.end() && it->key == key) {
      if (it->tombstone) return false;
      it->value = value;
      return true;
    }
    const BaseHit base = BaseLookup(key);
    if (base.failed || !base.value.has_value()) return false;
    delta.insert(it, DeltaEntry{key, value, false});
    ++delta_entries_;
    MaybeCompact(slot);
    return true;
  }

  // Removes `key`. A paged key gets a tombstone (cleared by compaction);
  // an overlay-only key is dropped outright. Returns false when absent.
  bool Delete(const K& key) {
    telemetry::ScopedOp telem(telemetry::Engine::kDisk,
                              telemetry::Op::kDelete);
    const size_t slot = DeltaSlot(key);
    DeltaBuffer& delta = deltas_[slot];
    const auto it = DeltaPos(delta, key);
    if (it != delta.end() && it->key == key) {
      if (it->tombstone) return false;
      const BaseHit base = BaseLookup(key);
      if (base.failed) return false;
      if (base.value.has_value()) {
        *it = DeltaEntry{key, 0, true};  // hide the paged copy
      } else {
        delta.erase(it);
        --delta_entries_;
      }
      --size_;
      return true;
    }
    const BaseHit base = BaseLookup(key);
    if (base.failed || !base.value.has_value()) return false;
    delta.insert(it, DeltaEntry{key, 0, true});
    ++delta_entries_;
    --size_;
    MaybeCompact(slot);
    return true;
  }

  // Calls fn(key, value) for every live entry in [lo, hi] ascending and
  // returns the number emitted. Walks slot by slot from lo's floor: each
  // leaf page from the first rank >= lo is merged with the part of its
  // slot's delta up to the page's last key, and the slot's remaining
  // entries follow its last page. One page fault per touched leaf page.
  // Counted as a disk/scan (RangeCount and Compact's full sweep therefore
  // each register one scan — they are real paged scans).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    size_t emitted = 0;
    (void)Scan(lo, hi, fn, emitted);
    return emitted;
  }

  // Number of live keys in [lo, hi] via a counting scan.
  size_t RangeCount(const K& lo, const K& hi) const {
    return ScanRange(lo, hi, [](const K&, uint64_t) {});
  }

  // Folds the delta overlay into a freshly serialized index file: scans
  // the merged view, re-segments it with the shrinking cone at the stored
  // error bound, writes a temp file in the same page layout, fsyncs it,
  // atomically renames it over the original, fsyncs the directory entry,
  // and reopens. Returns false (leaving the original file and overlay
  // untouched) if this scan cannot read every page or the rewrite fails.
  bool Compact() {
    // Compaction reporting: the ScopedDuration feeds the registry's
    // disk/compact count + histogram + trace record, cancelled on the
    // failure paths so they don't register as completed compactions, and
    // arms phase spans so the rewrite is attributed under the compact
    // phase. Wall time is also hand-timed into last_compact_ns_, which
    // must stay live in both telemetry builds (NowNs never compiles out).
    telemetry::ScopedDuration telem(telemetry::Engine::kDisk,
                                    telemetry::Op::kCompact);
    telemetry::ScopedPhase phase(telemetry::Engine::kDisk,
                                 telemetry::Phase::kCompact);
    const uint64_t t0 = telemetry::NowNs();
    std::vector<K> keys;
    std::vector<uint64_t> values;
    keys.reserve(size_);
    values.reserve(size_);
    auto collect = [&](const K& k, uint64_t v) {
      keys.push_back(k);
      values.push_back(v);
    };
    size_t scanned = 0;
    if (!Scan(std::numeric_limits<K>::min(), std::numeric_limits<K>::max(),
              collect, scanned)) {
      telem.Cancel();
      return false;
    }
    const double err = reader_.meta().error;
    std::vector<PackedSegment<K>> table;
    for (const Segment<K>& s :
         SegmentShrinkingCone<K>(std::span<const K>(keys), err)) {
      table.push_back(s.Pack());
    }
    const std::string tmp = path_ + ".compact";
    // Spelled out (not via WriteSegmentFile) so the written-but-not-
    // durable crash point is observable between the page stream and the
    // fsync.
    {
      FilePageSink sink(tmp);
      const bool written =
          sink.is_open() &&
          WriteSegmentFilePages<K>(sink, keys, values, table, err,
                                   reader_.page_bytes());
      if (written) Hook(CompactPoint::kTmpWritten);
      if (!written || !sink.Finish()) {
        std::remove(tmp.c_str());
        telem.Cancel();
        return false;
      }
    }
    Hook(CompactPoint::kTmpSynced);
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      std::remove(tmp.c_str());
      telem.Cancel();
      return false;
    }
    Hook(CompactPoint::kRenamed);
    // The rename itself already happened; a failed directory fsync only
    // weakens durability of the swap, it cannot un-correct the data.
    (void)SyncParentDir(path_);
    Hook(CompactPoint::kDirSynced);
    if (!Load(path_)) {
      io_error_ = true;
      telem.Cancel();
      return false;
    }
    ++compactions_;
    last_compact_ns_ = telemetry::NowNs() - t0;
    // Every page of the new file was written by the rewrite (meta +
    // segment-table + leaves), so the post-reload page count is the
    // rewritten-page figure.
    const uint64_t pages = reader_.page_count();
    compact_pages_rewritten_ += pages;
    telemetry::CounterAdd(telemetry::CounterId::kCompactPagesRewritten,
                          pages);
    return true;
  }

  // Incremental compaction of one segment (append-and-republish): merges
  // segment `slot`'s leaves with its overlay slot, re-segments the merged
  // run locally, appends the new leaf pages and a new full segment table
  // at EOF, fsyncs, then writes the next-generation meta into the other
  // ping-pong slot and fsyncs again. No page referenced by the previous
  // generation is touched, so a crash anywhere rolls back one generation.
  // On an empty base file there is no segment to merge: slot 0's overlay
  // becomes the file's first segments. Returns false — with the file and
  // all in-memory state unchanged — on any I/O failure, and also when the
  // merge leaves no key (an all-tombstone segment needs the directory
  // surgery only the full Compact performs).
  bool CompactSegment(size_t slot) {
    if (slot >= deltas_.size()) return false;
    telemetry::ScopedDuration telem(telemetry::Engine::kDisk,
                                    telemetry::Op::kCompact);
    telemetry::ScopedPhase phase(telemetry::Engine::kDisk,
                                 telemetry::Phase::kCompact);
    // The run the overlay folds into: one segment, or none at all.
    const size_t replaced = segments_.empty() ? 0 : 1;
    const SegmentRecord<K> rec =
        replaced == 0 ? SegmentRecord<K>{} : segments_[slot];
    const size_t start = SegStart(rec);
    const size_t len = static_cast<size_t>(rec.seg.length);
    const size_t cap = reader_.meta().leaf_capacity;
    const DeltaBuffer& overlay = deltas_[slot];
    const size_t consumed = overlay.size();

    // 1. Merged view of this one segment: its paged entries merged with its
    // overlay slot, tombstones dropped, overrides applied.
    std::vector<K> paged_keys(len);
    std::vector<uint64_t> paged_values(len);
    const uint64_t old_pages = PagesForRecords(len, cap);
    for (uint64_t p = 0; p < old_pages; ++p) {
      PinnedPage pin(pool_.get(),
                     static_cast<uint32_t>(rec.first_leaf_page + p));
      if (!pin) {
        io_error_ = true;
        telem.Cancel();
        return false;
      }
      const size_t begin = static_cast<size_t>(p) * cap;
      LeafSlots<K>(pin.data(), 0).CopyOut(std::min(cap, len - begin),
                                          paged_keys.data() + begin,
                                          paged_values.data() + begin);
    }
    std::vector<K> keys(len + consumed);
    std::vector<uint64_t> values(len + consumed);
    const size_t merged = fitree::detail::MergePageWithBuffer<K, uint64_t>(
        paged_keys.data(), paged_values.data(), len, overlay, keys.data(),
        values.data());
    keys.resize(merged);
    values.resize(merged);
    if (keys.empty()) {
      telem.Cancel();
      return false;
    }

    // 2. Local re-segmentation at the stored error bound, globalized into
    // the segment's rank range [start, start + keys.size()): both start
    // and intercept shift together because Predict() yields global ranks.
    const SegmentFileMeta meta = reader_.meta();
    const auto local_segs =
        SegmentShrinkingCone<K>(std::span<const K>(keys), meta.error);
    const int64_t d = static_cast<int64_t>(keys.size()) -
                      static_cast<int64_t>(len);
    std::vector<SegmentRecord<K>> records;
    records.reserve(segments_.size() - replaced + local_segs.size());
    for (size_t i = 0; i < slot; ++i) records.push_back(segments_[i]);
    uint64_t next_page = meta.total_pages;  // appends start past EOF
    for (const auto& ls : local_segs) {
      Segment<K> g = ls;
      g.start += start;
      g.intercept += static_cast<double>(start);
      records.push_back({g.Pack(), next_page});
      next_page += PagesForRecords(g.length, cap);
    }
    const uint64_t appended_leaves = next_page - meta.total_pages;
    for (size_t i = slot + replaced; i < segments_.size(); ++i) {
      SegmentRecord<K> r = segments_[i];
      // Later ranks shift by d; their pages don't move (local addressing
      // is start-relative, invariant under the shift).
      r.seg.start = static_cast<uint64_t>(
          static_cast<int64_t>(r.seg.start) + d);
      r.seg.intercept += static_cast<double>(d);
      records.push_back(r);
    }

    // 3. Append: new leaf pages, then the new full segment table.
    FilePageSink file(path_, FilePageSink::Mode::kUpdate);
    PageEncoder<K> out(file, meta.page_bytes);
    for (size_t s = slot; s < slot + local_segs.size(); ++s) {
      const size_t m = SegStart(records[s]) - start;  // merged-array index
      out.Leaves(records[s], keys.data() + m, values.data() + m);
    }
    const uint64_t seg_table_first = next_page;
    const uint64_t seg_pages =
        PagesForRecords(records.size(), meta.segment_capacity);
    out.SegmentTable(records, seg_table_first);
    if (!out.ok()) {
      telem.Cancel();
      return false;
    }
    Hook(CompactPoint::kAppendWritten);
    if (!file.Sync()) {
      telem.Cancel();
      return false;
    }
    Hook(CompactPoint::kAppendSynced);

    // 4. Republish: next generation into the OTHER meta slot, fsynced
    // after the appends are already durable.
    SegmentFileMeta nm = meta;
    nm.generation = meta.generation + 1;
    nm.key_count = static_cast<uint64_t>(
        static_cast<int64_t>(meta.key_count) + d);
    nm.segment_count = records.size();
    nm.seg_table_first_page = seg_table_first;
    nm.segment_page_count = seg_pages;
    nm.leaf_page_count =
        meta.leaf_page_count - old_pages + appended_leaves;
    nm.total_pages = seg_table_first + seg_pages;
    out.Meta(nm, static_cast<uint32_t>(nm.generation % kNumMetaSlots));
    if (out.ok()) Hook(CompactPoint::kMetaWritten);
    if (!out.ok() || !file.Finish()) {
      telem.Cancel();
      return false;
    }
    Hook(CompactPoint::kMetaSynced);

    // 5. Adopt the new generation in memory: the reader re-points at the
    // republished meta (same fd — appends are visible to pread), the
    // consumed overlay slot disappears, and surviving slots shift around
    // the new segments.
    reader_.set_meta(nm);
    std::vector<DeltaBuffer> new_deltas(records.size());
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (i == slot) continue;
      new_deltas[i < slot ? i : i + local_segs.size() - 1] =
          std::move(deltas_[i]);
    }
    deltas_ = std::move(new_deltas);
    delta_entries_ -= consumed;
    segments_ = std::move(records);
    RebuildDirectory();
    ++incremental_compactions_;
    const uint64_t rewritten = appended_leaves + seg_pages + 1;
    compact_pages_rewritten_ += rewritten;
    telemetry::CounterAdd(telemetry::CounterId::kCompactPagesRewritten,
                          rewritten);
    return true;
  }

  // Duration of the most recent successful Compact() (0 before the first),
  // and the cumulative pages written by all of this instance's compactions.
  uint64_t LastCompactNs() const { return last_compact_ns_; }
  uint64_t CompactPagesRewritten() const { return compact_pages_rewritten_; }

  // Structural snapshot (telemetry tentpole): base/overlay occupancy,
  // segment shape, compaction history, and this instance's buffer-pool I/O
  // picture (hit rate included — the registry's io.* counters aggregate
  // across pools, this is the per-instance view).
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(telemetry::Engine::kDisk);
    st.Add("keys", static_cast<double>(size_));
    st.Add("base_keys", static_cast<double>(base_size()));
    st.Add("segments", static_cast<double>(segments_.size()));
    st.Add("error", error());
    st.Add("delta_entries", static_cast<double>(delta_entries_));
    st.Add("delta_fraction",
           size_ == 0 ? 0.0
                      : static_cast<double>(delta_entries_) /
                            static_cast<double>(size_));
    st.Add("leaf_pages", static_cast<double>(LeafPageCount()));
    st.Add("file_bytes", static_cast<double>(FileBytes()));
    st.Add("cache_frames", static_cast<double>(pool_->frame_count()));
    st.Add("cache_bytes", static_cast<double>(pool_->CapacityBytes()));
    const IoStats& io_stats = pool_->stats();
    st.Add("io_hits", static_cast<double>(io_stats.cache_hits));
    st.Add("io_misses", static_cast<double>(io_stats.cache_misses));
    st.Add("io_pages_read", static_cast<double>(io_stats.pages_read));
    st.Add("io_hit_rate", io_stats.HitRate());
    // Paged searches whose answer lay past the predicted page's slice of
    // the error window: the model's page-level miss rate (Sec 5 sizes the
    // window in pages).
    st.Add("second_page_lookups", static_cast<double>(second_page_lookups_));
    st.Add("second_page_share",
           paged_lookups_ == 0 ? 0.0
                               : static_cast<double>(second_page_lookups_) /
                                     static_cast<double>(paged_lookups_));
    st.Add("compactions", static_cast<double>(compactions_));
    st.Add("incremental_compactions",
           static_cast<double>(incremental_compactions_));
    st.Add("last_compact_ns", static_cast<double>(last_compact_ns_));
    st.Add("compact_pages_rewritten",
           static_cast<double>(compact_pages_rewritten_));
    st.Add("io_error", io_error_ ? 1.0 : 0.0);
    return st;
  }

 private:
  DiskFitingTree() = default;

  // "Key sorts before every segment's first key" sentinel, shared with
  // FlatKeyIndex::kNone so the flat descent needs no translation.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  using DeltaEntry = fitree::detail::BufferEntry<K, uint64_t>;
  using DeltaBuffer = std::vector<DeltaEntry>;  // sorted by key

  static size_t SegStart(const SegmentRecord<K>& r) {
    return static_cast<size_t>(r.seg.start);
  }
  static size_t SegEnd(const SegmentRecord<K>& r) {
    return static_cast<size_t>(r.seg.start + r.seg.length);
  }

  void Hook(CompactPoint p) {
    if (options_.compact_hook) options_.compact_hook(p);
  }

  // (Re)loads reader, pool, segment table, directory, and resets the
  // overlay. Compactions_ survives; everything else derives from the file.
  bool Load(const std::string& path) {
    if (!reader_.Open(path)) return false;
    if (!reader_.ReadSegmentTable(&segments_)) return false;
    pool_ = std::make_unique<BufferPool>(
        &reader_, reader_.page_bytes(),
        std::max<size_t>(1, options_.cache_pages));
    RebuildDirectory();
    deltas_.assign(std::max<size_t>(1, segments_.size()), DeltaBuffer{});
    delta_entries_ = 0;
    size_ = reader_.meta().key_count;
    return true;
  }

  // Rebuilds the directory from segments_ (Load and every incremental
  // republish — the table is small, this is off the hot path). Segment ids
  // are 0..n-1 in first-key order, so the floor index is itself the id.
  void RebuildDirectory() {
    std::vector<K> first_keys;
    first_keys.reserve(segments_.size());
    for (const auto& rec : segments_) first_keys.push_back(rec.seg.first_key);
    directory_.Reset(std::move(first_keys));
  }

  // Directory floor of `key`, or kNoSlot when `key` sorts before every
  // indexed first key.
  size_t FloorSlot(const K& key) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kDisk,
                                 telemetry::Phase::kDirectoryDescent);
    return directory_.FloorIndex(key);  // FlatKeyIndex::kNone == kNoSlot
  }

  // The segment's prediction for `key`, clamped into the segment's ranks:
  // the rank whose page a lookup pins first.
  static size_t PredictedRank(const SegmentRecord<K>& rec, const K& key) {
    return fitree::ClampRank(rec.seg.Predict(key), SegStart(rec),
                             SegEnd(rec) - 1);
  }

  // File-global leaf page holding base rank `rank` (v2 addressing).
  uint32_t PageForRank(const SegmentRecord<K>& rec, size_t rank) const {
    return static_cast<uint32_t>(
        rec.first_leaf_page +
        (rank - SegStart(rec)) / reader_.meta().leaf_capacity);
  }

  // Overlay segment for `key`: its directory floor, else segment 0 (keys
  // below every first key, and the whole keyspace of an empty base file).
  size_t DeltaSlot(const K& key) const {
    const size_t floor = FloorSlot(key);
    return floor == kNoSlot ? 0 : floor;
  }

  // Position of `key` in `delta`: its entry, or where it would go.
  template <typename Buffer>
  static auto DeltaPos(Buffer& delta, const K& key) {
    return std::lower_bound(delta.begin(), delta.end(), key,
                            fitree::detail::BufferKeyLess{});
  }

  // The body of ScanRange: adds the entries it emits to `emitted` and
  // returns false when a page read failed, which ends the scan there.
  // Compact() decides on this outcome, not on the sticky io_error_, so a
  // read that failed once and later succeeds does not block a rewrite.
  template <typename Fn>
  bool Scan(const K& lo, const K& hi, Fn& fn, size_t& emitted) const {
    telemetry::ScopedOp telem(telemetry::Engine::kDisk,
                              telemetry::Op::kScan);
    if (hi < lo) return true;
    const size_t first = DeltaSlot(lo);
    const size_t cap = reader_.meta().leaf_capacity;
    size_t rank = LowerBound(lo);
    std::vector<K> keys(cap);
    std::vector<uint64_t> values(cap);
    for (size_t s = first; s < deltas_.size(); ++s) {
      if (s > first && hi < segments_[s].seg.first_key) break;
      const std::span<const DeltaEntry> delta(deltas_[s]);
      auto b = delta.begin();
      if (s < segments_.size()) {
        const SegmentRecord<K>& rec = segments_[s];
        rank = std::max(rank, SegStart(rec));
        while (rank < SegEnd(rec)) {
          PinnedPage pin(pool_.get(), PageForRank(rec, rank));
          if (!pin) {
            io_error_ = true;
            return false;
          }
          const size_t slot = (rank - SegStart(rec)) % cap;
          const size_t n = std::min(SegEnd(rec) - rank, cap - slot);
          LeafSlots<K>(pin.data(), slot).CopyOut(n, keys.data(),
                                                 values.data());
          rank += n;
          const K last = keys[n - 1];
          const auto e = std::upper_bound(
              b, delta.end(), last,
              [](const K& k, const DeltaEntry& d) { return k < d.key; });
          emitted += fitree::detail::EmitMergedRange<K, uint64_t>(
              keys.data(), values.data(), n, {b, e}, lo, hi, fn);
          if (!(last < hi)) return true;
          b = e;
        }
      }
      emitted += fitree::detail::EmitMergedRange<K, uint64_t>(
          nullptr, nullptr, 0, {b, delta.end()}, lo, hi, fn);
    }
    return true;
  }

  // Compacts `slot` once its overlay reaches the threshold. Republishes
  // never reuse the pages they replace; once those reach the live ones,
  // the full rewrite keeps only live pages: the file stays near twice its
  // live size, each rewrite paid for by the appends.
  void MaybeCompact(size_t slot) {
    if (options_.compact_threshold_pct == 0) return;
    const size_t length =
        segments_.empty() ? 0 : static_cast<size_t>(segments_[slot].seg.length);
    const size_t threshold = std::max<size_t>(
        8, length * options_.compact_threshold_pct / 100);
    if (deltas_[slot].size() < threshold) return;
    const SegmentFileMeta& m = reader_.meta();
    if (m.total_pages >=
        2 * (kNumMetaSlots + m.segment_page_count + m.leaf_page_count)) {
      (void)Compact();
    } else {
      (void)CompactSegment(slot);
    }
  }

  // Outcome of one paged search: the lower-bound rank over the base file,
  // and the payload when the entry at that rank is the probed key itself.
  // `failed` means a page read failed: rank and value are then no answer.
  struct BaseHit {
    size_t rank = 0;
    std::optional<uint64_t> value;
    bool failed = false;
  };

  // Paged search for `key`, delta overlay excluded.
  BaseHit BaseLookup(const K& key) const {
    return SearchBase(FloorSlot(key), key);
  }

  // The one paged search behind Lookup, LowerBound and BaseLookup, from an
  // already-resolved directory floor. The window [begin, end) stays within
  // one segment, because ErrorWindow clamps to it. The search starts at
  // the page holding the predicted rank and narrows that page's slice of
  // the window; it pins a neighbour page only when the in-page bound lands
  // on a slice edge the window continues past (the slice's first rank with
  // `key` below it, or one past its last rank), and keeps walking in that
  // one direction. The payload comes from the pin the bound was found
  // under. Self time here is pure compute: the page faults the search
  // triggers are nested page_io spans (buffer_pool.h) and subtract out.
  BaseHit SearchBase(size_t floor, const K& key) const {
    if (base_size() == 0 || floor == kNoSlot) return {};
    telemetry::ScopedPhase phase(telemetry::Engine::kDisk,
                                 telemetry::Phase::kWindowSearch);
    const SegmentRecord<K>& rec = segments_[floor];
    const size_t seg_start = SegStart(rec);
    const auto [begin, end] = fitree::ErrorWindow(
        rec.seg.Predict(key), reader_.meta().error, seg_start, SegEnd(rec));
    if (begin >= end) return {begin, std::nullopt};
    ++paged_lookups_;
    const size_t cap = reader_.meta().leaf_capacity;
    size_t leaf = (PredictedRank(rec, key) - seg_start) / cap;
    int step = 0;  // direction of the walk once it leaves the first page
    for (;;) {
      const size_t page_first = seg_start + leaf * cap;
      const size_t slice_begin = std::max(begin, page_first);
      const size_t slice_end = std::min(end, page_first + cap);
      PinnedPage pin(pool_.get(),
                     static_cast<uint32_t>(rec.first_leaf_page + leaf));
      if (!pin) {
        io_error_ = true;
        return {end, std::nullopt, true};
      }
      // Branchless narrow over the slice, then a strided vector count over
      // the packed {key, payload} records. The slice never crosses the
      // page, so every offset below stays within the pinned frame.
      const LeafSlots<K> slice(pin.data(), slice_begin - page_first);
      size_t b = 0;
      size_t m = slice_end - slice_begin;
      while (m > simd::kSimdWindowKeys) {
        const size_t half = m / 2;
        b = slice.key(b + half - 1) < key ? b + half : b;
        m -= half;
      }
      const size_t i = b + simd::CountLessStrided(
                               slice.at(b), LeafSlots<K>::kStride, m, key);
      const size_t rank = slice_begin + i;
      int next = 0;
      if (rank == slice_end) {
        if (step >= 0 && slice_end < end) next = 1;
      } else {
        const auto entry = slice.entry(i);
        if (entry.key == key) return {rank, entry.value};
        if (i == 0 && step <= 0 && slice_begin > begin) next = -1;
      }
      if (next == 0) return {rank, std::nullopt};
      if (step == 0) ++second_page_lookups_;
      step = next;
      leaf = next > 0 ? leaf + 1 : leaf - 1;
    }
  }

  std::string path_;
  Options options_;
  SegmentFileReader<K> reader_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<SegmentRecord<K>> segments_;
  FlatKeyIndex<K> directory_;  // segment first keys; floor index = id
  std::vector<DeltaBuffer> deltas_;  // parallel to segments_ (>= 1 slot)
  size_t delta_entries_ = 0;      // live + tombstone entries across slots
  size_t size_ = 0;               // live keys: base + inserts - deletes
  uint64_t compactions_ = 0;
  uint64_t incremental_compactions_ = 0;
  uint64_t last_compact_ns_ = 0;          // most recent Compact() duration
  uint64_t compact_pages_rewritten_ = 0;  // cumulative across compactions
  // Paged searches that pinned a page, and those that needed a second one.
  mutable uint64_t paged_lookups_ = 0;
  mutable uint64_t second_page_lookups_ = 0;
  mutable bool io_error_ = false;  // set by const reads on failed faults
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_DISK_FITING_TREE_H_
