// Fixed-capacity buffer-pool page cache over a PageSource: pin/unpin,
// CLOCK (second-chance) eviction, and hit/miss/read counters. This is the
// knob the disk benches sweep — frames * page_bytes is the fraction of the
// file allowed to stay resident, and IoStats turns that into pages-read/op.
//
// Every miss is one PageSource::ReadPageInto call into a victim frame; the
// page enters the page table only after its read verifies, so a failed
// read leaves no pin and a free frame behind.
//
// Resident pages are found through a flat page table: one uint32_t frame
// index per file page id, 4 B per file page (16 KiB per GiB of 4 KiB
// pages), grown only when a page at a higher id is installed. A hit, a
// miss, an eviction and an Unpin each index it directly, with no hashing
// and no allocation on the hot path; ids past its end are not resident.
//
// Single-threaded by design (matches the per-thread index instances the
// bench layer uses); no dirty pages because page writes go through the
// append-and-republish path in segment_file.h, never through the pool.
// Frames live in a kDirectIoAlignment-aligned arena so they are legal
// O_DIRECT destinations.

#ifndef FITREE_STORAGE_BUFFER_POOL_H_
#define FITREE_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "storage/page.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"

namespace fitree::storage {

class BufferPool {
 public:
  BufferPool(PageSource* source, size_t page_bytes, size_t frames)
      : source_(source),
        page_bytes_(page_bytes),
        arena_(page_bytes * (frames == 0 ? 1 : frames)),
        frames_(frames == 0 ? 1 : frames) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t page_bytes() const { return page_bytes_; }
  size_t frame_count() const { return frames_.size(); }
  size_t CapacityBytes() const { return arena_.size(); }
  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats{}; }

  // True when `page_id` is currently resident (test/diagnostic hook; does
  // not touch pins, the clock hand, or the counters).
  bool Contains(uint32_t page_id) const { return FrameOf(page_id) != kNoFrame; }

  // Entries in the page table: one past the highest page id ever installed
  // (diagnostic; lookups of ids past it never grow it).
  size_t PageTableSize() const { return table_.size(); }

  // Returns the resident page, pinned (caller must Unpin), or nullptr when
  // the read fails verification or every frame is pinned.
  const std::byte* Fetch(uint32_t page_id) {
    if (const uint32_t frame = FrameOf(page_id); frame != kNoFrame) {
      Frame& f = frames_[frame];
      ++f.pins;
      f.referenced = true;
      ++stats_.cache_hits;
      telemetry::CounterAdd(telemetry::CounterId::kIoCacheHits);
      return FrameData(frame);
    }
    ++stats_.cache_misses;
    telemetry::CounterAdd(telemetry::CounterId::kIoCacheMisses);
    // Attributed to the disk engine: it is the only BufferPool client, and
    // the phase grid wants page faults separated from the compute phases
    // (window search self time stays pure compute this way).
    telemetry::ScopedPhase phase(telemetry::Engine::kDisk,
                                 telemetry::Phase::kPageIo);
    const uint32_t victim = PickVictim();
    if (victim == kNoFrame) return nullptr;
    Frame& f = frames_[victim];
    if (f.valid) {
      table_[f.page_id] = kNoFrame;
      f.valid = false;
    }
    if (!source_->ReadPageInto(page_id, FrameData(victim))) return nullptr;
    ++stats_.pages_read;
    stats_.bytes_read += page_bytes_;
    telemetry::CounterAdd(telemetry::CounterId::kIoPagesRead);
    telemetry::CounterAdd(telemetry::CounterId::kIoBytesRead, page_bytes_);
    f.page_id = page_id;
    f.pins = 1;
    f.referenced = true;
    f.valid = true;
    Install(page_id, victim);
    return FrameData(victim);
  }

  // Drops one pin. Returns false — leaving all pool state untouched — when
  // `page_id` is not resident or has no outstanding pin. Misuse is a hard
  // error in every build type: an assert-only guard would vanish in
  // release builds and let pin underflow corrupt the CLOCK state silently.
  [[nodiscard]] bool Unpin(uint32_t page_id) {
    const uint32_t frame = FrameOf(page_id);
    if (frame == kNoFrame) return false;
    Frame& f = frames_[frame];
    if (f.pins == 0) return false;
    --f.pins;
    return true;
  }

 private:
  struct Frame {
    uint32_t page_id = 0;
    uint32_t pins = 0;
    bool referenced = false;
    bool valid = false;
  };

  static constexpr uint32_t kNoFrame = UINT32_MAX;

  std::byte* FrameData(uint32_t frame) {
    return arena_.data() + size_t{frame} * page_bytes_;
  }

  uint32_t FrameOf(uint32_t page_id) const {
    return page_id < table_.size() ? table_[page_id] : kNoFrame;
  }

  void Install(uint32_t page_id, uint32_t frame) {
    if (page_id >= table_.size()) table_.resize(size_t{page_id} + 1, kNoFrame);
    table_[page_id] = frame;
  }

  // CLOCK sweep: invalid frames are taken immediately, pinned frames are
  // skipped, referenced frames get a second chance. Two full laps clear
  // every reference bit, so only an all-pinned pool returns kNoFrame.
  uint32_t PickVictim() {
    for (size_t step = 0; step < 2 * frames_.size(); ++step) {
      const uint32_t i = hand_;
      if (++hand_ == frames_.size()) hand_ = 0;
      Frame& f = frames_[i];
      if (!f.valid && f.pins == 0) return i;
      if (f.pins > 0) continue;
      if (f.referenced) {
        f.referenced = false;
        continue;
      }
      return i;
    }
    return kNoFrame;
  }

  PageSource* source_;
  size_t page_bytes_;
  AlignedBytes arena_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> table_;  // page id -> frame, kNoFrame if absent
  uint32_t hand_ = 0;
  IoStats stats_;
};

// RAII pin: fetches on construction, unpins on destruction. Falsy when the
// fetch failed.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(BufferPool* pool, uint32_t page_id)
      : pool_(pool), page_id_(page_id), data_(pool->Fetch(page_id)) {}
  ~PinnedPage() { Release(); }

  PinnedPage(PinnedPage&& o) noexcept
      : pool_(o.pool_), page_id_(o.page_id_), data_(o.data_) {
    o.data_ = nullptr;
  }
  PinnedPage& operator=(PinnedPage&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      page_id_ = o.page_id_;
      data_ = o.data_;
      o.data_ = nullptr;
    }
    return *this;
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  explicit operator bool() const { return data_ != nullptr; }
  const std::byte* data() const { return data_; }

 private:
  void Release() {
    if (data_ != nullptr) (void)pool_->Unpin(page_id_);
    data_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  uint32_t page_id_ = 0;
  const std::byte* data_ = nullptr;
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_BUFFER_POOL_H_
