// Single-file on-disk layout for a bulk-loaded FITing-Tree, format v3 (the
// v2 layout below with CRC32C page checksums, storage/page.h):
//
//   page 0                      meta slot A (SegmentFileMeta)
//   page 1                      meta slot B (ping-pong twin of slot A)
//   pages T .. T+S-1            segment table (SegmentRecord<K>)
//   leaf pages                  sorted LeafEntry<K>, page-aligned PER
//                               SEGMENT: segment i's leaves start at its
//                               own first_leaf_page, so local rank r maps
//                               to page first_leaf_page + r / leaf_capacity
//                               at slot r % leaf_capacity
//
// v1 packed leaves rank-contiguously across the whole file; v2 trades a
// half-page of padding per segment for per-segment addressing, which is
// what makes *incremental* compaction possible: a single segment's merged
// leaves can be appended at EOF and the segment table + meta republished,
// leaving every other segment's pages untouched.
//
// Crash safety (append-and-republish): new pages are appended and fsynced
// BEFORE the meta republish; the meta lands in the slot the new generation
// hashes to (generation % 2) and is fsynced last. A crash at any point
// leaves the other slot's meta valid and pointing exclusively at pages
// that existed when it was written — the reader picks the highest-numbered
// slot that passes its CRC, so an interrupted republish simply falls back
// one generation. Trailing bytes beyond the live meta's total_pages are
// interrupted appends and are legal.
//
// Bulk writes stream sealed (checksummed) pages through a PageSink; the
// file sink fsyncs on Finish and checks close(), so ENOSPC can't silently
// produce a torn index (ISSUE 10 satellite). The reader serves pages back
// with pread — batched through storage/async_io.h when asked — and
// verifies every page before exposing it.

#ifndef FITREE_STORAGE_SEGMENT_FILE_H_
#define FITREE_STORAGE_SEGMENT_FILE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/options.h"
#include "core/shrinking_cone.h"
#include "core/static_fiting_tree.h"
#include "storage/async_io.h"
#include "storage/page.h"

namespace fitree::storage {

inline constexpr uint64_t kSegmentFileMagic = 0x0031454552544946ull;  // "FITREE1"

// Ping-pong meta: generation g lives in slot g % 2, so a torn republish
// never destroys the previous generation's meta.
inline constexpr uint64_t kNumMetaSlots = 2;

inline constexpr uint64_t PagesForRecords(uint64_t records,
                                          uint64_t capacity) {
  return (records + capacity - 1) / capacity;
}

// One leaf record: the key plus an opaque 64-bit payload (a row id / rank
// in the benches). Kept standard-layout so pages round-trip by memcpy.
template <typename K>
struct LeafEntry {
  K key;
  uint64_t value;
};

// One segment-table record: the model plus the file-global page where this
// segment's leaves start (v2's per-segment addressing).
template <typename K>
struct SegmentRecord {
  PackedSegment<K> seg;
  uint64_t first_leaf_page = 0;
};

struct SegmentFileMeta {
  uint64_t magic = 0;
  uint32_t format_version = 0;
  uint32_t page_bytes = 0;
  uint64_t generation = 0;            // republish sequence; highest wins
  uint64_t key_count = 0;             // live keys across all segments
  uint64_t segment_count = 0;
  uint64_t seg_table_first_page = 0;  // current segment-table extent
  uint64_t segment_page_count = 0;
  uint64_t leaf_first_page = 0;       // first leaf page of the bulk layout
  uint64_t leaf_page_count = 0;       // live leaf pages (sum over segments)
  uint64_t total_pages = 0;           // pages addressable this generation
  uint32_t key_bytes = 0;
  uint32_t leaf_entry_bytes = 0;
  uint32_t leaf_capacity = 0;     // LeafEntry records per leaf page
  uint32_t segment_capacity = 0;  // SegmentRecord records per segment page
  double error = 0.0;             // lookup window half-width the models obey
};

template <typename K>
constexpr size_t LeafCapacity(size_t page_bytes) {
  return (page_bytes - kPageHeaderBytes) / sizeof(LeafEntry<K>);
}

template <typename K>
constexpr size_t SegmentCapacity(size_t page_bytes) {
  return (page_bytes - kPageHeaderBytes) / sizeof(SegmentRecord<K>);
}

// Destination for the writer's sealed-page stream. The file sink below is
// the real one; tests wrap it to inject write/Finish faults (ENOSPC, kill
// points) without touching the writer.
class PageSink {
 public:
  virtual ~PageSink() = default;

  // Appends one sealed page. Returns false on write failure.
  virtual bool WritePage(const std::byte* page, size_t page_bytes) = 0;

  // Flushes to durable media and releases the destination. Returns false
  // when the flush, fsync, or close fails — a sink whose Finish was never
  // called (or returned false) has NOT produced a durable file.
  virtual bool Finish() = 0;
};

// fd-backed sink: write() per page, fsync-then-checked-close on Finish.
class FilePageSink final : public PageSink {
 public:
  explicit FilePageSink(const std::string& path) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  }
  ~FilePageSink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool is_open() const { return fd_ >= 0; }

  bool WritePage(const std::byte* page, size_t page_bytes) override {
    if (fd_ < 0) return false;
    size_t done = 0;
    while (done < page_bytes) {
      const ssize_t n = ::write(fd_, page + done, page_bytes - done);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  bool Finish() override {
    if (fd_ < 0) return false;
    bool ok = ::fsync(fd_) == 0;
    ok = ::close(fd_) == 0 && ok;
    fd_ = -1;
    return ok;
  }

 private:
  int fd_ = -1;
};

// Durability of a rename: the new directory entry must itself be fsynced
// or a crash can forget the rename while keeping the file contents.
inline bool SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

struct SegmentFileOptions {
  size_t page_bytes = kDefaultPageBytes;
  // Test hook: when set, the writer streams through this sink instead of
  // its own FilePageSink (fault injection / crash points). The caller owns
  // Finish-on-success semantics either way.
  PageSink* sink = nullptr;
};

// Fixed-size paging layout expressed in segment-table form (the paper's
// "Fixed" baseline, Sec 7.1): one zero-slope segment per run of
// `segment_length` keys, predicting every key at the run's start. Serialize
// it with error = segment_length so the lookup window spans the whole
// segment and the in-page search degenerates to binary search of the page —
// structurally the same read path as FITing-Tree, boundaries data-blind.
template <typename K>
std::vector<PackedSegment<K>> MakeFixedSegments(std::span<const K> keys,
                                                size_t segment_length) {
  std::vector<PackedSegment<K>> segments;
  if (segment_length == 0) segment_length = 1;
  for (size_t begin = 0; begin < keys.size(); begin += segment_length) {
    const size_t length = std::min(segment_length, keys.size() - begin);
    segments.push_back({keys[begin], 0.0, static_cast<double>(begin),
                        static_cast<uint64_t>(begin),
                        static_cast<uint64_t>(length)});
  }
  return segments;
}

// Writes keys + payloads + segment table as one index file through `sink`.
// `values` maps rank -> payload and may be empty, in which case the
// payload is the rank itself. `segments` must partition [0, keys.size())
// in order, and every key's predicted rank must be within `error` of its
// true rank (true by construction for SegmentShrinkingCone output and
// MakeFixedSegments with error >= segment_length - 1).
template <typename K>
bool WriteSegmentFilePages(PageSink& sink, std::span<const K> keys,
                           std::span<const uint64_t> values,
                           std::span<const PackedSegment<K>> segments,
                           double error, size_t page_bytes) {
  if (page_bytes < kMinPageBytes) return false;
  const size_t leaf_cap = LeafCapacity<K>(page_bytes);
  const size_t seg_cap = SegmentCapacity<K>(page_bytes);
  if (leaf_cap == 0 || seg_cap == 0) return false;
  if (!values.empty() && values.size() != keys.size()) return false;
  uint64_t covered = 0;
  for (const auto& s : segments) {
    if (s.start != covered) return false;
    covered += s.length;
  }
  if (covered != keys.size()) return false;

  const uint64_t seg_pages = PagesForRecords(segments.size(), seg_cap);
  const uint64_t leaf_first = kNumMetaSlots + seg_pages;

  // Per-segment leaf placement: each segment starts on a fresh page.
  std::vector<SegmentRecord<K>> records;
  records.reserve(segments.size());
  uint64_t next_leaf_page = leaf_first;
  for (const auto& s : segments) {
    records.push_back({s, next_leaf_page});
    next_leaf_page += PagesForRecords(s.length, leaf_cap);
  }
  const uint64_t leaf_pages = next_leaf_page - leaf_first;

  std::vector<std::byte> page(page_bytes, std::byte{0});
  bool ok = true;
  const auto emit = [&](PageType type, uint32_t page_id, uint32_t count) {
    SealPage(page.data(), page_bytes, type, page_id, count);
    ok = ok && sink.WritePage(page.data(), page_bytes);
    std::fill(page.begin(), page.end(), std::byte{0});
  };

  SegmentFileMeta meta;
  meta.magic = kSegmentFileMagic;
  meta.format_version = kPageFormatVersion;
  meta.page_bytes = static_cast<uint32_t>(page_bytes);
  meta.generation = 1;
  meta.key_count = keys.size();
  meta.segment_count = segments.size();
  meta.seg_table_first_page = kNumMetaSlots;
  meta.segment_page_count = seg_pages;
  meta.leaf_first_page = leaf_first;
  meta.leaf_page_count = leaf_pages;
  meta.total_pages = leaf_first + leaf_pages;
  meta.key_bytes = sizeof(K);
  meta.leaf_entry_bytes = sizeof(LeafEntry<K>);
  meta.leaf_capacity = static_cast<uint32_t>(leaf_cap);
  meta.segment_capacity = static_cast<uint32_t>(seg_cap);
  meta.error = error;
  // Both slots carry generation 1 at creation, so slot parity holds from
  // the first republish onward and a fresh file never has a garbage slot.
  for (uint32_t slot = 0; slot < kNumMetaSlots; ++slot) {
    StoreAs(page.data() + kPageHeaderBytes, meta);
    emit(PageType::kMeta, slot, 1);
  }

  uint32_t page_id = kNumMetaSlots;
  for (uint64_t p = 0; p < seg_pages; ++p, ++page_id) {
    const size_t begin = p * seg_cap;
    const size_t end = std::min(records.size(), begin + seg_cap);
    for (size_t i = begin; i < end; ++i) {
      StoreAs(page.data() + kPageHeaderBytes +
                  (i - begin) * sizeof(SegmentRecord<K>),
              records[i]);
    }
    emit(PageType::kSegmentTable, page_id, static_cast<uint32_t>(end - begin));
  }

  for (const auto& rec : records) {
    const size_t seg_begin = static_cast<size_t>(rec.seg.start);
    const size_t seg_len = static_cast<size_t>(rec.seg.length);
    const uint64_t pages = PagesForRecords(seg_len, leaf_cap);
    for (uint64_t p = 0; p < pages; ++p, ++page_id) {
      const size_t begin = seg_begin + p * leaf_cap;
      const size_t end = std::min(seg_begin + seg_len, begin + leaf_cap);
      for (size_t r = begin; r < end; ++r) {
        const LeafEntry<K> entry{keys[r], values.empty()
                                              ? static_cast<uint64_t>(r)
                                              : values[r]};
        StoreAs(page.data() + kPageHeaderBytes +
                    (r - begin) * sizeof(LeafEntry<K>),
                entry);
      }
      emit(PageType::kLeaf, page_id, static_cast<uint32_t>(end - begin));
    }
  }
  return ok;
}

// Path-based form: streams through a FilePageSink (or opts.sink when a
// test injects one) and makes the result durable — Finish() fsyncs and
// checks close, and the parent directory is fsynced so the new entry
// itself survives a crash.
template <typename K>
bool WriteSegmentFile(const std::string& path, std::span<const K> keys,
                      std::span<const uint64_t> values,
                      std::span<const PackedSegment<K>> segments, double error,
                      const SegmentFileOptions& opts = {}) {
  if (opts.sink != nullptr) {
    return WriteSegmentFilePages<K>(*opts.sink, keys, values, segments, error,
                                    opts.page_bytes) &&
           opts.sink->Finish();
  }
  FilePageSink sink(path);
  if (!sink.is_open()) return false;
  const bool ok = WriteSegmentFilePages<K>(sink, keys, values, segments,
                                           error, opts.page_bytes) &&
                  sink.Finish();
  return ok && SyncParentDir(path);
}

// Serializes a built in-memory tree using its exported segment table and
// stored error bound. The tree's explicit payloads are written when
// present; otherwise the payload is the rank (the shared convention).
template <typename K>
bool WriteIndexFile(const std::string& path, const StaticFitingTree<K>& tree,
                    const SegmentFileOptions& opts = {}) {
  const auto segments = tree.ExportSegmentTable();
  return WriteSegmentFile<K>(path, std::span<const K>(tree.data()),
                             std::span<const uint64_t>(tree.values()),
                             std::span<const PackedSegment<K>>(segments),
                             tree.error(), opts);
}

// pread-based reader. Open() picks the newest valid meta slot and
// validates it; every subsequent page read re-verifies checksum, type, and
// id, so a corrupted or misdirected page is rejected instead of served.
// Batched reads go through a storage/async_io.h engine (io_uring or pread
// threads per FITREE_IO_BACKEND), created lazily on the first real batch.
template <typename K>
class SegmentFileReader final : public PageSource {
 public:
  struct IoOptions {
    IoBackend backend = GlobalOptions().io_backend;
    // Attempt O_DIRECT (only when page_bytes is a kDirectIoAlignment
    // multiple; falls back to buffered reads when the filesystem refuses).
    // With direct reads in effect every destination buffer must be
    // kDirectIoAlignment-aligned — BufferPool frames and the reader's own
    // scratch are; hand-rolled callers must use AlignedBytes.
    bool direct = GlobalOptions().io_direct;
  };

  SegmentFileReader() = default;
  ~SegmentFileReader() override { Close(); }
  SegmentFileReader(const SegmentFileReader&) = delete;
  SegmentFileReader& operator=(const SegmentFileReader&) = delete;

  bool Open(const std::string& path) { return Open(path, IoOptions{}); }

  bool Open(const std::string& path, const IoOptions& io) {
    Close();
    io_options_ = io;
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return Fail("open() failed");

    // Bootstrap: page_bytes is only known from a meta slot, and slot B's
    // offset depends on it. Peek slot A; when it is torn, probe common
    // page sizes for a plausible slot B before giving up.
    uint32_t page_bytes = 0;
    std::byte peek[kPageHeaderBytes + sizeof(SegmentFileMeta)];
    if (::pread(fd_, peek, sizeof(peek), 0) !=
        static_cast<ssize_t>(sizeof(peek))) {
      return Fail("file too short for a meta page");
    }
    const auto meta_a = LoadAs<SegmentFileMeta>(peek + kPageHeaderBytes);
    if (PlausibleMeta(meta_a)) {
      page_bytes = meta_a.page_bytes;
    } else {
      for (const size_t probe : {size_t{128}, size_t{256}, size_t{512},
                                 size_t{1024}, size_t{2048}, size_t{4096},
                                 size_t{8192}, size_t{16384}, size_t{32768},
                                 size_t{65536}}) {
        if (::pread(fd_, peek, sizeof(peek), static_cast<off_t>(probe)) !=
            static_cast<ssize_t>(sizeof(peek))) {
          continue;
        }
        const auto meta_b = LoadAs<SegmentFileMeta>(peek + kPageHeaderBytes);
        if (PlausibleMeta(meta_b) && meta_b.page_bytes == probe) {
          page_bytes = meta_b.page_bytes;
          break;
        }
      }
      if (page_bytes == 0) {
        // A right-magic slot A that failed only its version is a file of
        // another format, not a foreign file: say which.
        if (meta_a.magic == kSegmentFileMagic &&
            meta_a.format_version != kPageFormatVersion) {
          return Fail("unsupported format version " +
                      std::to_string(meta_a.format_version) + " (expected " +
                      std::to_string(kPageFormatVersion) + ")");
        }
        return Fail("bad magic");
      }
    }

    // Newest slot whose page passes full verification wins.
    bool found = false;
    SegmentFileMeta best{};
    std::vector<std::byte> page(page_bytes);
    for (uint32_t slot = 0; slot < kNumMetaSlots; ++slot) {
      if (::pread(fd_, page.data(), page.size(),
                  static_cast<off_t>(slot) * page_bytes) !=
          static_cast<ssize_t>(page.size())) {
        continue;
      }
      if (!VerifyPage(page.data(), page.size(), PageType::kMeta, slot)) {
        continue;
      }
      const auto m = LoadAs<SegmentFileMeta>(page.data() + kPageHeaderBytes);
      if (!PlausibleMeta(m) || m.page_bytes != page_bytes) continue;
      if (!found || m.generation > best.generation) {
        best = m;
        found = true;
      }
    }
    if (!found) return Fail("no valid meta slot (checksum mismatch)");

    if (best.key_bytes != sizeof(K) ||
        best.leaf_entry_bytes != sizeof(LeafEntry<K>)) {
      return Fail("key type mismatch");
    }
    if (best.leaf_capacity != LeafCapacity<K>(best.page_bytes) ||
        best.segment_capacity != SegmentCapacity<K>(best.page_bytes)) {
      return Fail("capacity mismatch");
    }
    // The record counts must agree with the page counts: a CRC only proves
    // integrity, not that the header fields are in range, and everything
    // downstream (reserve sizes, per-page loops) trusts these bounds.
    if (PagesForRecords(best.segment_count, best.segment_capacity) !=
        best.segment_page_count) {
      return Fail("record counts disagree with page counts");
    }
    if (best.seg_table_first_page < kNumMetaSlots ||
        best.seg_table_first_page + best.segment_page_count >
            best.total_pages ||
        best.leaf_first_page < kNumMetaSlots ||
        best.leaf_first_page > best.total_pages) {
      return Fail("meta page ranges out of bounds");
    }
    meta_ = best;

    struct stat st {};
    if (::fstat(fd_, &st) != 0) return Fail("fstat() failed");
    // >= not ==: bytes past total_pages are interrupted appends from a
    // crashed republish — legal, unreferenced by this generation.
    if (static_cast<uint64_t>(st.st_size) <
        meta_.total_pages * meta_.page_bytes) {
      return Fail("file size disagrees with meta page counts");
    }

    if (io.direct && page_bytes % kDirectIoAlignment == 0) {
      const int dfd = ::open(path.c_str(), O_RDONLY | O_DIRECT | O_CLOEXEC);
      if (dfd >= 0) {
        ::close(fd_);
        fd_ = dfd;
        direct_ = true;
      }
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    meta_ = SegmentFileMeta{};
    engine_.reset();
    direct_ = false;
  }

  bool is_open() const { return fd_ >= 0; }
  const SegmentFileMeta& meta() const { return meta_; }
  const std::string& error_message() const { return error_; }
  size_t page_bytes() const { return meta_.page_bytes; }
  uint64_t page_count() const { return meta_.total_pages; }
  bool direct_io() const { return direct_; }

  // Backend actually in effect for batched reads ("none" until the first
  // real batch instantiates the engine).
  const char* io_backend_name() const {
    return engine_ == nullptr ? "none" : engine_->name();
  }

  // File-global page id of the `leaf_index`-th leaf page OF THE BULK
  // LAYOUT (fresh files; after incremental republishes leaves scatter and
  // per-segment first_leaf_page is authoritative).
  uint32_t LeafPageId(uint64_t leaf_index) const {
    return static_cast<uint32_t>(meta_.leaf_first_page + leaf_index);
  }

  // Republish support (DiskFitingTree incremental compaction): adopt the
  // new generation's meta after append + meta write without a reopen.
  void set_meta(const SegmentFileMeta& m) { meta_ = m; }

  bool ReadPageInto(uint32_t page_id, std::byte* out) override {
    if (fd_ < 0 || page_id >= page_count()) return false;
    const ssize_t n = ::pread(fd_, out, meta_.page_bytes,
                              static_cast<off_t>(page_id) *
                                  static_cast<off_t>(meta_.page_bytes));
    if (n != static_cast<ssize_t>(meta_.page_bytes)) return false;
    return VerifyPage(out, meta_.page_bytes, ExpectedType(page_id), page_id);
  }

  // Batched reads: submit every page before waiting on any (async_io.h),
  // then verify each completed page exactly as the serial path does.
  void ReadPagesInto(PageReadRequest* reqs, size_t n) override {
    if (fd_ < 0) {
      for (size_t i = 0; i < n; ++i) reqs[i].ok = false;
      return;
    }
    if (n <= 1) {
      for (size_t i = 0; i < n; ++i) {
        reqs[i].ok = ReadPageInto(reqs[i].page_id, reqs[i].out);
      }
      return;
    }
    bool bounded = true;
    for (size_t i = 0; i < n; ++i) {
      if (reqs[i].page_id >= page_count()) {
        reqs[i].ok = false;
        bounded = false;
      }
    }
    if (engine_ == nullptr) {
      engine_ = MakeBatchReadEngine(io_options_.backend);
    }
    if (!bounded) {
      // Mixed batch: serve the in-range subset serially (rare error path).
      for (size_t i = 0; i < n; ++i) {
        if (reqs[i].page_id < page_count()) {
          reqs[i].ok = ReadPageInto(reqs[i].page_id, reqs[i].out);
        }
      }
      return;
    }
    engine_->ReadBatch(fd_, meta_.page_bytes, reqs, n);
    for (size_t i = 0; i < n; ++i) {
      if (!reqs[i].ok) continue;
      reqs[i].ok = VerifyPage(reqs[i].out, meta_.page_bytes,
                              ExpectedType(reqs[i].page_id), reqs[i].page_id);
    }
  }

  // Reads and validates the whole segment table (it lives in memory in the
  // paper's design; only leaves stay disk-resident). Validation here is
  // what downstream trusts: starts are contiguous from 0 and sum to
  // key_count, and every segment's leaf extent is inside total_pages.
  bool ReadSegmentTable(std::vector<SegmentRecord<K>>* out) {
    out->clear();
    out->reserve(meta_.segment_count);
    AlignedBytes page(meta_.page_bytes);
    for (uint64_t p = 0; p < meta_.segment_page_count; ++p) {
      const uint32_t page_id =
          static_cast<uint32_t>(meta_.seg_table_first_page + p);
      if (!ReadPageInto(page_id, page.data())) return false;
      const PageHeader h = LoadAs<PageHeader>(page.data());
      // count is attacker-controlled until checked: reading past
      // segment_capacity records would run off the page buffer.
      if (h.count > meta_.segment_capacity) return false;
      for (uint32_t i = 0; i < h.count; ++i) {
        out->push_back(LoadAs<SegmentRecord<K>>(
            page.data() + kPageHeaderBytes + i * sizeof(SegmentRecord<K>)));
      }
    }
    if (out->size() != meta_.segment_count) return false;
    uint64_t covered = 0;
    uint64_t leaf_pages = 0;
    for (const auto& rec : *out) {
      if (rec.seg.start != covered) return false;
      covered += rec.seg.length;
      const uint64_t pages =
          PagesForRecords(rec.seg.length, meta_.leaf_capacity);
      if (rec.first_leaf_page < kNumMetaSlots ||
          rec.first_leaf_page + pages > meta_.total_pages) {
        return false;
      }
      leaf_pages += pages;
    }
    return covered == meta_.key_count && leaf_pages == meta_.leaf_page_count;
  }

 private:
  // Fields a meta must satisfy before anything else is believed (the CRC
  // runs after this, at full-page granularity).
  static bool PlausibleMeta(const SegmentFileMeta& m) {
    return m.magic == kSegmentFileMagic &&
           m.format_version == kPageFormatVersion &&
           m.page_bytes >= kMinPageBytes && m.page_bytes <= (1u << 26);
  }

  PageType ExpectedType(uint32_t page_id) const {
    if (page_id < kNumMetaSlots) return PageType::kMeta;
    if (page_id >= meta_.seg_table_first_page &&
        page_id < meta_.seg_table_first_page + meta_.segment_page_count) {
      return PageType::kSegmentTable;
    }
    return PageType::kLeaf;
  }

  bool Fail(std::string why) {
    error_ = std::move(why);
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return false;
  }

  int fd_ = -1;
  SegmentFileMeta meta_{};
  IoOptions io_options_{};
  std::unique_ptr<BatchReadEngine> engine_;
  bool direct_ = false;
  std::string error_;
};

// Write-side companion for append-and-republish: positioned page writes
// into an existing index file (appends at EOF, then the meta slot), with
// explicit fsync barriers between the append and the republish.
class SegmentFileUpdater {
 public:
  SegmentFileUpdater() = default;
  ~SegmentFileUpdater() { Close(); }
  SegmentFileUpdater(const SegmentFileUpdater&) = delete;
  SegmentFileUpdater& operator=(const SegmentFileUpdater&) = delete;

  bool Open(const std::string& path) {
    Close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    return fd_ >= 0;
  }

  bool is_open() const { return fd_ >= 0; }

  bool WritePageAt(uint64_t page_id, const std::byte* page,
                   size_t page_bytes) {
    if (fd_ < 0) return false;
    size_t done = 0;
    while (done < page_bytes) {
      const ssize_t n = ::pwrite(
          fd_, page + done, page_bytes - done,
          static_cast<off_t>(page_id) * static_cast<off_t>(page_bytes) +
              static_cast<off_t>(done));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  bool Sync() { return fd_ >= 0 && ::fsync(fd_) == 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_SEGMENT_FILE_H_
