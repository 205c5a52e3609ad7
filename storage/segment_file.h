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
// Only this header knows the page layout. The bulk writer and
// DiskFitingTree's incremental republish both seal pages with PageEncoder
// and write them with FilePageSink, which fsyncs and checks close(), so
// ENOSPC can't silently produce a torn index; every leaf read decodes
// through LeafSlots. The reader serves each page with one pread and
// verifies it before exposing it.

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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/options.h"
#include "core/shrinking_cone.h"
#include "storage/page.h"

namespace fitree {
// WriteIndexFile's source; its callers include core/static_fiting_tree.h.
template <typename K>
class StaticFitingTree;
}  // namespace fitree

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

// Destination for sealed pages. FilePageSink below is the real one; tests
// wrap it to inject write/Finish faults (ENOSPC, kill points) without
// touching the encoder.
class PageSink {
 public:
  virtual ~PageSink() = default;

  // Writes one sealed page at the page id in its header. Returns false on
  // write failure.
  virtual bool WritePage(const std::byte* page, size_t page_bytes) = 0;

  // Flushes to durable media and releases the destination. Returns false
  // when the flush, fsync, or close fails — a sink whose Finish was never
  // called (or returned false) has NOT produced a durable file.
  virtual bool Finish() = 0;
};

// The one fd-backed page writer: pwrite at page_id * page_bytes (retried
// on EINTR and short writes), so a page can only land where the reader
// expects it. Sync() is an fsync barrier between an append and its
// republish; Finish() fsyncs and checks close().
class FilePageSink final : public PageSink {
 public:
  // kCreate creates or truncates `path` for a new file; kUpdate opens an
  // existing index file for append-and-republish.
  enum class Mode { kCreate, kUpdate };

  explicit FilePageSink(const std::string& path, Mode mode = Mode::kCreate) {
    const int flags = mode == Mode::kCreate ? O_CREAT | O_TRUNC : 0;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC | flags, 0644);
  }
  ~FilePageSink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool is_open() const { return fd_ >= 0; }

  bool WritePage(const std::byte* page, size_t page_bytes) override {
    if (fd_ < 0) return false;
    const off_t at = static_cast<off_t>(LoadAs<PageHeader>(page).page_id) *
                     static_cast<off_t>(page_bytes);
    size_t done = 0;
    while (done < page_bytes) {
      const ssize_t n = ::pwrite(fd_, page + done, page_bytes - done,
                                 at + static_cast<off_t>(done));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  bool Sync() { return fd_ >= 0 && ::fsync(fd_) == 0; }

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

// Builds and seals every page of an index file and hands it to a sink: the
// bulk writer and DiskFitingTree's incremental republish both emit through
// it. The buffer is zeroed after each page, so struct padding and a page's
// unused tail hash deterministically.
template <typename K>
class PageEncoder {
 public:
  PageEncoder(PageSink& sink, size_t page_bytes)
      : sink_(sink), page_(page_bytes, std::byte{0}) {}

  // The meta page, into ping-pong slot `slot`.
  void Meta(const SegmentFileMeta& meta, uint32_t slot) {
    StoreAs(page_.data() + kPageHeaderBytes, meta);
    Emit(PageType::kMeta, slot, 1);
  }

  // `records` as the segment table, packed from page `first_page` on.
  void SegmentTable(std::span<const SegmentRecord<K>> records,
                    uint64_t first_page) {
    Pack(PageType::kSegmentTable, first_page, records.size(),
         [&](size_t i) { return records[i]; });
  }

  // The leaf pages of `rec`, from its first_leaf_page on: entry i is
  // {keys[i], values[i]}, or {keys[i], its rank} when `values` is null.
  void Leaves(const SegmentRecord<K>& rec, const K* keys,
              const uint64_t* values) {
    Pack(PageType::kLeaf, rec.first_leaf_page,
         static_cast<size_t>(rec.seg.length), [&](size_t i) {
           return LeafEntry<K>{keys[i], values == nullptr ? rec.seg.start + i
                                                          : values[i]};
         });
  }

  // False once a page write has failed; no later page is written.
  bool ok() const { return ok_; }

 private:
  // Packs record(0) .. record(n - 1) as many to a page as fit, the pages
  // numbered from `page_id` on.
  template <typename RecordAt>
  void Pack(PageType type, uint64_t page_id, size_t n, RecordAt record) {
    using Record = decltype(record(0));
    const size_t cap = (page_.size() - kPageHeaderBytes) / sizeof(Record);
    for (size_t begin = 0; begin < n; begin += cap, ++page_id) {
      const size_t end = std::min(n, begin + cap);
      for (size_t i = begin; i < end; ++i) {
        StoreAs(page_.data() + kPageHeaderBytes + (i - begin) * sizeof(Record),
                record(i));
      }
      Emit(type, page_id, end - begin);
    }
  }

  void Emit(PageType type, uint64_t page_id, size_t count) {
    SealPage(page_.data(), page_.size(), type, static_cast<uint32_t>(page_id),
             static_cast<uint32_t>(count));
    ok_ = ok_ && sink_.WritePage(page_.data(), page_.size());
    std::fill(page_.begin(), page_.end(), std::byte{0});
  }

  PageSink& sink_;
  std::vector<std::byte> page_;
  bool ok_ = true;
};

// Read-side view of a leaf page's packed entries from slot `first` on;
// every decode of a leaf page goes through it. The page must stay pinned
// while the view is in use.
template <typename K>
class LeafSlots {
 public:
  static constexpr size_t kStride = sizeof(LeafEntry<K>);

  LeafSlots(const std::byte* page, size_t first)
      : base_(page + kPageHeaderBytes + first * kStride) {}

  // Address of entry i, for strided search kernels and prefetches.
  const std::byte* at(size_t i) const { return base_ + i * kStride; }
  K key(size_t i) const { return LoadAs<K>(at(i)); }
  LeafEntry<K> entry(size_t i) const { return LoadAs<LeafEntry<K>>(at(i)); }

  // Copies entries 0 .. n - 1 out as parallel key and payload arrays.
  void CopyOut(size_t n, K* keys, uint64_t* values) const {
    for (size_t i = 0; i < n; ++i) {
      const LeafEntry<K> e = entry(i);
      keys[i] = e.key;
      values[i] = e.value;
    }
  }

 private:
  const std::byte* base_;
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

  PageEncoder<K> out(sink, page_bytes);
  // Both slots carry generation 1 at creation, so slot parity holds from
  // the first republish onward and a fresh file never has a garbage slot.
  for (uint32_t slot = 0; slot < kNumMetaSlots; ++slot) out.Meta(meta, slot);
  out.SegmentTable(records, kNumMetaSlots);
  for (const auto& rec : records) {
    out.Leaves(rec, keys.data() + rec.seg.start,
               values.empty() ? nullptr : values.data() + rec.seg.start);
  }
  return out.ok();
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
//
// With FITREE_IO_DIRECT set (GlobalOptions().io_direct) and page_bytes a
// kDirectIoAlignment multiple, pages are read with O_DIRECT, falling back
// to buffered reads when the filesystem refuses. Direct reads need every
// destination buffer kDirectIoAlignment-aligned: BufferPool frames and the
// reader's own scratch are; other callers must use AlignedBytes.
template <typename K>
class SegmentFileReader final : public PageSource {
 public:
  SegmentFileReader() = default;
  ~SegmentFileReader() override { Close(); }
  SegmentFileReader(const SegmentFileReader&) = delete;
  SegmentFileReader& operator=(const SegmentFileReader&) = delete;

  bool Open(const std::string& path) {
    Close();
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

    if (GlobalOptions().io_direct && page_bytes % kDirectIoAlignment == 0) {
      const int dfd = ::open(path.c_str(), O_RDONLY | O_DIRECT | O_CLOEXEC);
      if (dfd >= 0) {
        ::close(fd_);
        fd_ = dfd;
      }
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    meta_ = SegmentFileMeta{};
  }

  bool is_open() const { return fd_ >= 0; }
  const SegmentFileMeta& meta() const { return meta_; }
  const std::string& error_message() const { return error_; }
  size_t page_bytes() const { return meta_.page_bytes; }
  uint64_t page_count() const { return meta_.total_pages; }

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
  std::string error_;
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_SEGMENT_FILE_H_
