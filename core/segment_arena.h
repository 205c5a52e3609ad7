// Segment arena: where FitingTree keeps each segment's page. A segment's
// page is one block — its n sorted keys, then its n payloads — carved from
// 2 MiB-aligned chunks advised MADV_HUGEPAGE, so the error-window search and
// the payload read after it share one TLB entry. On a table larger than the
// last-level cache every dependent miss of a lookup otherwise also pays a
// 4 KiB page walk (EXPERIMENTS.md, "Segment arena").
//
// Allocation bumps through the tree's current chunk, or through the tail of
// the chunk filled before it when the block still fits there. Each chunk
// counts its live bytes, and a 16-byte header before each block names the
// block's owner, if it has one. A freed block's space is not reused: its
// chunk is released once its last block goes. Released 2 MiB chunks go to one
// process-wide free list (mutex-guarded, capped at the process's peak live
// arena bytes), so a rebuilt tree takes its pages from the one dropped
// before it instead of faulting fresh memory. Merge churn would otherwise
// leave many sparsely filled chunks behind: when a tree's mapped bytes
// exceed twice its live bytes plus kSlackBytes, Compact has the owners of
// the sparsest chunk's blocks move them (FitingTree calls it after every
// merge). A block without an owner stays where it is: one still being
// filled, or one that waits to be freed until no reader can hold it.
//
// A block larger than one chunk gets a chunk of its own, sized to fit. A
// bulk load announces its total (ExpectBytes) so its final, partly filled
// chunk stays on 4 KiB pages: one mostly empty huge page would add up to
// 2 MiB of resident memory for nothing.
//
// Under AddressSanitizer every byte no live block owns is poisoned: each
// chunk's unallocated tail, every freed block, and a kRedzoneBytes gap
// after every block, so an over-read past a page still reports.
//
// A SegmentArena is not thread-safe: a tree that shares one between threads
// serializes every call (the concurrent tree holds a mutex). Only the
// process-wide free list is shared between arenas.

#ifndef FITREE_CORE_SEGMENT_ARENA_H_
#define FITREE_CORE_SEGMENT_ARENA_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FITREE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FITREE_ASAN 1
#endif
#endif
#if defined(FITREE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace fitree {

namespace arena_detail {

inline constexpr size_t kChunkBytes = size_t{2} << 20;
// Blocks start on cache lines; the chunk header takes the first line.
inline constexpr size_t kLineBytes = 64;

#if defined(FITREE_ASAN)
inline constexpr size_t kRedzoneBytes = 64;
inline void Poison(const void* p, size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
inline void Unpoison(const void* p, size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(p, n);
}
#else
inline constexpr size_t kRedzoneBytes = 0;
inline void Poison(const void*, size_t) {}
inline void Unpoison(const void*, size_t) {}
#endif

constexpr size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

// Maps `bytes` (a multiple of kChunkBytes) at a kChunkBytes-aligned
// address. The first `huge_bytes` are advised onto huge pages, the rest
// onto 4 KiB pages (so THP "always" does not fault them whole either).
inline void* MapChunk(size_t bytes, size_t huge_bytes) {
#if defined(MADV_HUGEPAGE)
  // Over-map by one chunk, then trim both ends to the aligned span.
  const size_t span = bytes + kChunkBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t base = RoundUp(start, kChunkBytes);
  if (base > start) munmap(raw, base - start);
  if (start + span > base + bytes) {
    munmap(reinterpret_cast<void*>(base + bytes), start + span - base - bytes);
  }
  auto* p = reinterpret_cast<char*>(base);
  if (huge_bytes > 0) madvise(p, huge_bytes, MADV_HUGEPAGE);
  if (bytes > huge_bytes) {
    madvise(p + huge_bytes, bytes - huge_bytes, MADV_NOHUGEPAGE);
  }
  return p;
#else
  (void)huge_bytes;
  void* p = std::aligned_alloc(kChunkBytes, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
#endif
}

inline void UnmapChunk(void* p, size_t bytes) {
  Unpoison(p, bytes);
#if defined(MADV_HUGEPAGE)
  munmap(p, bytes);
#else
  (void)bytes;
  std::free(p);
#endif
}

// Lives in the first line of its chunk, so a block finds its chunk by
// masking its address (every block starts inside the first kChunkBytes).
struct ChunkHeader {
  ChunkHeader* prev = nullptr;  // owning arena's list; `next` also links
  ChunkHeader* next = nullptr;  // the free list
  size_t bytes = 0;             // mapping size, a multiple of kChunkBytes
  size_t used = 0;              // bytes handed out, this header included
  size_t live = 0;              // bytes held by live blocks
};
static_assert(sizeof(ChunkHeader) <= kLineBytes);

inline ChunkHeader* HeaderOf(const void* block) {
  return reinterpret_cast<ChunkHeader*>(reinterpret_cast<uintptr_t>(block) &
                                        ~(kChunkBytes - 1));
}

// The process-wide free list of empty 2 MiB chunks, and the live byte
// total of every arena that caps it. Arenas report their live bytes
// whenever they take or release a chunk, so the total lags by less than
// the blocks of one chunk per arena. Leaked on purpose: trees destroyed
// during static destruction still release into it.
class ChunkPool {
 public:
  static ChunkPool& Get() {
    static ChunkPool* pool = new ChunkPool;
    return *pool;
  }

  // A chunk of `bytes` whose first `huge_bytes` are huge-advised,
  // reporting the caller's live-byte change since its last report. A
  // standard chunk comes off the free list when one is there, whatever
  // `huge_bytes` asked: its pages are resident already.
  ChunkHeader* Acquire(size_t bytes, size_t huge_bytes, int64_t live_delta) {
    ChunkHeader* c = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ReportLocked(live_delta);
      if (bytes == kChunkBytes && free_ != nullptr) {
        c = free_;
        free_ = c->next;
        --free_count_;
      }
    }
    if (c == nullptr) {
      c = new (MapChunk(bytes, huge_bytes)) ChunkHeader;
      c->bytes = bytes;
    }
    c->prev = c->next = nullptr;
    c->used = kLineBytes;
    c->live = 0;
    Poison(reinterpret_cast<char*>(c) + kLineBytes, c->bytes - kLineBytes);
    return c;
  }

  // Returns an empty chunk: onto the free list while that holds no more
  // chunks than the peak live total fills, else back to the system. A
  // rebuilt tree of the same data then maps nothing new, its 4 KiB tail
  // chunk included (the list is LIFO and a tree releases its newest chunk
  // first, so that chunk comes back last).
  void Release(ChunkHeader* c, int64_t live_delta) {
    Poison(reinterpret_cast<char*>(c) + kLineBytes, c->bytes - kLineBytes);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ReportLocked(live_delta);
      if (c->bytes == kChunkBytes &&
          free_count_ * kChunkBytes < peak_live_) {
        c->next = free_;
        free_ = c;
        ++free_count_;
        return;
      }
    }
    UnmapChunk(c, c->bytes);
  }

  void Report(int64_t live_delta) {
    std::lock_guard<std::mutex> lock(mu_);
    ReportLocked(live_delta);
  }

  size_t free_chunks() {
    std::lock_guard<std::mutex> lock(mu_);
    return free_count_;
  }

 private:
  void ReportLocked(int64_t live_delta) {
    live_ = static_cast<size_t>(static_cast<int64_t>(live_) + live_delta);
    peak_live_ = std::max(peak_live_, live_);
  }

  std::mutex mu_;
  ChunkHeader* free_ = nullptr;
  size_t free_count_ = 0;
  size_t live_ = 0;
  size_t peak_live_ = 0;
};

}  // namespace arena_detail

class SegmentArena {
 public:
  static constexpr size_t kChunkBytes = arena_detail::kChunkBytes;
  // Poisoned gap the ASan build leaves after every block (0 otherwise);
  // FitingTree also leaves one between a page's keys and its payloads.
  static constexpr size_t kRedzoneBytes = arena_detail::kRedzoneBytes;
  // Mapped bytes allowed beyond twice the live bytes: the current chunk's
  // unfilled tail plus one chunk of packing loss.
  static constexpr size_t kSlackBytes = 2 * kChunkBytes;

  SegmentArena() = default;
  SegmentArena(const SegmentArena&) = delete;
  SegmentArena& operator=(const SegmentArena&) = delete;

  ~SegmentArena() {
    auto& pool = arena_detail::ChunkPool::Get();
    pool.Report(TakeLiveDelta());  // the peak sees this arena whole
    live_ = 0;
    while (chunks_head_ != nullptr) {
      ChunkHeader* c = chunks_head_;
      chunks_head_ = c->next;
      pool.Release(c, TakeLiveDelta());
    }
  }

  // Arena bytes a block of `bytes` occupies: header plus bytes rounded up
  // to a cache line, then the ASan gap.
  static size_t SpanOf(size_t bytes) {
    return arena_detail::RoundUp(sizeof(BlockHeader) + bytes,
                                 arena_detail::kLineBytes) +
           kRedzoneBytes;
  }

  // Announces that blocks spanning `bytes` in total (SpanOf each) are about
  // to be allocated: a chunk opened once less than one chunk of them is
  // left stays on 4 KiB pages. The announcement lapses once they are.
  void ExpectBytes(size_t bytes) { expected_ = bytes; }

  // A block of `bytes` > 0 bytes, 16-byte aligned, without an owner.
  void* Allocate(size_t bytes) {
    constexpr size_t kUsable = kChunkBytes - arena_detail::kLineBytes;
    const size_t span = SpanOf(bytes);
    // The chunk an announced bulk load will not fill stays on 4 KiB pages.
    const bool tail = expected_ != 0 && expected_ < kUsable;
    expected_ -= std::min(expected_, span);
    ChunkHeader* c;
    if (span > kUsable) {
      // Its own chunk; only the 2 MiB pages it fills go huge.
      const size_t need = arena_detail::kLineBytes + span;
      c = Open(arena_detail::RoundUp(need, kChunkBytes),
               need / kChunkBytes * kChunkBytes);
    } else if (Fits(bump_, span)) {
      c = bump_;
    } else if (Fits(spare_, span)) {
      c = spare_;
    } else {
      // The chunk left behind keeps taking blocks that still fit its tail
      // while it has more room than the previous spare.
      if (bump_ != nullptr &&
          (spare_ == nullptr || spare_->used > bump_->used)) {
        spare_ = bump_;
      }
      c = bump_ = Open(kChunkBytes, tail ? 0 : kChunkBytes);
    }
    char* start = reinterpret_cast<char*>(c) + c->used;
    c->used += span;
    c->live += span;
    live_ += span;
    arena_detail::Unpoison(start, sizeof(BlockHeader) + bytes);
    new (start) BlockHeader{nullptr, span};
    return start + sizeof(BlockHeader);
  }

  // Names the owner Compact hands `block` back to when it has to move;
  // nullptr pins the block where it is.
  static void SetOwner(void* block, void* owner) {
    HeaderOfBlock(block)->owner = owner;
  }

  void Free(void* block) {
    BlockHeader* h = HeaderOfBlock(block);
    ChunkHeader* c = arena_detail::HeaderOf(h);
    const size_t span = h->span;
    assert(h->owner != FreedTag() && c->live >= span && live_ >= span);
    h->owner = FreedTag();
    arena_detail::Poison(block, span - sizeof(BlockHeader));
    c->live -= span;
    live_ -= span;
    if (c->live != 0) return;
    if (c == bump_) {
      c->used = arena_detail::kLineBytes;  // keep it, start over
      return;
    }
    if (c == spare_) spare_ = nullptr;
    Unlink(c);
    mapped_ -= c->bytes;
    --chunk_count_;
    arena_detail::ChunkPool::Get().Release(c, TakeLiveDelta());
  }

  // Holds mapped bytes to twice the live bytes plus kSlackBytes: while
  // over, calls move(owner) for every owned block of the sparsest chunk,
  // and each call must give its block a fresh allocation and free the old
  // one (or pin it, to free later), which releases the chunk once nothing
  // pinned is left in it. Returns the number of chunks moved out of. A
  // chunk qualifies only when less than half full, so each move frees
  // more than it fills and the loop ends within one pass over the chunks;
  // it ends early at a chunk that holds only pinned blocks.
  template <typename Move>
  size_t Compact(Move move) {
    size_t moved = 0;
    for (size_t rounds = chunk_count_;
         rounds > 0 && mapped_ > 2 * live_ + kSlackBytes; --rounds) {
      const ChunkHeader* victim = SparsestChunk();
      if (victim == nullptr) break;
      const std::vector<void*> owners = Owners(victim);
      if (owners.empty()) break;
      for (void* owner : owners) move(owner);
      ++moved;
    }
    relocations_ += moved;
    return moved;
  }

  size_t chunks() const { return chunk_count_; }
  size_t mapped_bytes() const { return mapped_; }
  size_t live_bytes() const { return live_; }
  size_t relocations() const { return relocations_; }
  // Empty chunks on the process-wide free list.
  static size_t FreeChunks() {
    return arena_detail::ChunkPool::Get().free_chunks();
  }
  // Poisons bytes inside a live block no read may touch (no-op without
  // ASan).
  static void PoisonGap(const void* p, size_t bytes) {
    arena_detail::Poison(p, bytes);
  }

 private:
  using ChunkHeader = arena_detail::ChunkHeader;

  // Precedes every block; never poisoned, so Owners can walk a chunk.
  struct BlockHeader {
    void* owner;  // nullptr while pinned, FreedTag() once freed
    size_t span;
  };

  static void* FreedTag() {
    static char tag;
    return &tag;
  }

  // The 2 MiB chunk whose blocks are cheapest to move, skipping the two
  // being filled and any at least half full (moving those frees nothing);
  // nullptr when there is none.
  const ChunkHeader* SparsestChunk() const {
    const ChunkHeader* best = nullptr;
    for (const ChunkHeader* c = chunks_head_; c != nullptr; c = c->next) {
      if (c == bump_ || c == spare_ || c->bytes != kChunkBytes) continue;
      if (best == nullptr || c->live < best->live) best = c;
    }
    if (best == nullptr || 2 * best->live >= kChunkBytes) return nullptr;
    return best;
  }

  // The owners of the live blocks in `c`, in address order: collected
  // first, since moving the last one releases `c`.
  static std::vector<void*> Owners(const ChunkHeader* c) {
    std::vector<void*> owners;
    for (size_t at = arena_detail::kLineBytes; at < c->used;) {
      const auto* h = reinterpret_cast<const BlockHeader*>(
          reinterpret_cast<const char*>(c) + at);
      if (h->owner != nullptr && h->owner != FreedTag()) {
        owners.push_back(h->owner);
      }
      at += h->span;
    }
    return owners;
  }

  static bool Fits(const ChunkHeader* c, size_t span) {
    return c != nullptr && c->used + span <= kChunkBytes;
  }

  static BlockHeader* HeaderOfBlock(void* block) {
    return reinterpret_cast<BlockHeader*>(static_cast<char*>(block) -
                                          sizeof(BlockHeader));
  }

  ChunkHeader* Open(size_t bytes, size_t huge_bytes) {
    ChunkHeader* c = arena_detail::ChunkPool::Get().Acquire(
        bytes, huge_bytes, TakeLiveDelta());
    c->next = chunks_head_;
    if (chunks_head_ != nullptr) chunks_head_->prev = c;
    chunks_head_ = c;
    mapped_ += bytes;
    ++chunk_count_;
    return c;
  }

  void Unlink(ChunkHeader* c) {
    if (c->prev != nullptr) {
      c->prev->next = c->next;
    } else {
      chunks_head_ = c->next;
    }
    if (c->next != nullptr) c->next->prev = c->prev;
  }

  // Live-byte change since the last report to the pool.
  int64_t TakeLiveDelta() {
    const int64_t delta =
        static_cast<int64_t>(live_) - static_cast<int64_t>(reported_live_);
    reported_live_ = live_;
    return delta;
  }

  ChunkHeader* chunks_head_ = nullptr;
  ChunkHeader* bump_ = nullptr;   // chunk being filled
  ChunkHeader* spare_ = nullptr;  // an earlier one whose tail still fills
  size_t expected_ = 0;
  size_t chunk_count_ = 0;
  size_t mapped_ = 0;
  size_t live_ = 0;
  size_t reported_live_ = 0;
  size_t relocations_ = 0;
};

}  // namespace fitree

#endif  // FITREE_CORE_SEGMENT_ARENA_H_
