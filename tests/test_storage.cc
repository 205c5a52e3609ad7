// storage/ unit tests: CRC32C known answers and kernel equivalence, page
// seal/verify + checksum rejection, buffer-pool hit/miss/eviction/pinning
// semantics, and segment-file write/reopen round-trips down to the raw
// page level.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/io_stats.h"
#include "core/static_fiting_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_fiting_tree.h"
#include "storage/page.h"
#include "storage/segment_file.h"

namespace {

using fitree::IoStats;
using fitree::PackedSegment;
using fitree::StaticFitingTree;
using fitree::storage::BufferPool;
using fitree::storage::CompactPoint;
using fitree::storage::Crc32c;
using fitree::storage::DiskFitingTree;
using fitree::storage::kPageHeaderBytes;
using fitree::storage::LeafCapacity;
using fitree::storage::LeafEntry;
using fitree::storage::LoadAs;
using fitree::storage::MakeFixedSegments;
using fitree::storage::PageHeader;
using fitree::storage::PageSource;
using fitree::storage::PageType;
using fitree::storage::PinnedPage;
using fitree::storage::SealPage;
using fitree::storage::SegmentFileMeta;
using fitree::storage::SegmentFileOptions;
using fitree::storage::SegmentFileReader;
using fitree::storage::SegmentRecord;
using fitree::storage::StoreAs;
using fitree::storage::VerifyPage;

constexpr size_t kPageBytes = 256;  // small pages force multi-page files

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<int64_t> EveryThird(size_t n) {
  std::vector<int64_t> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(static_cast<int64_t>(3 * i));
  return keys;
}

// One accelerated CRC32C kernel and whether this CPU can run it.
struct Crc32cKernel {
  const char* name;
  uint32_t (*fn)(const void*, size_t);
  bool available;
};

// Every kernel compiled into this build. Those the CPU lacks are listed
// but skipped, and each test prints which ran, so a CI log shows whether
// its runner covered the folding kernel.
std::vector<Crc32cKernel> AcceleratedKernels() {
  std::vector<Crc32cKernel> kernels;
#if defined(FITREE_CRC32C_X86)
  kernels.push_back({"folding (AVX-512 VPCLMULQDQ)",
                     fitree::storage::detail::Crc32cFold,
                     fitree::storage::detail::HaveFold()});
  kernels.push_back({"SSE4.2 three-stream",
                     fitree::storage::detail::Crc32cHardware,
                     fitree::storage::detail::HaveSse42()});
#endif
  for (const Crc32cKernel& k : kernels) {
    std::printf("CRC32C kernel %s: %s\n", k.name,
                k.available ? "checked" : "skipped, not on this CPU");
  }
  if (kernels.empty()) {
    std::printf("CRC32C: portable build, only the table kernel is compiled\n");
  }
  return kernels;
}

// RFC 3720 (iSCSI) Appendix B.4 CRC32C examples, plus the customary
// check value of "123456789" and buffers long enough to reach every
// kernel's bulk path.
TEST(Crc32c, KnownAnswers) {
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  std::array<unsigned char, 32> ascending{};
  std::array<unsigned char, 32> descending{};
  for (size_t i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  const std::string check = "123456789";
  const auto kernels = AcceleratedKernels();
  const auto expect_all = [&](const void* data, size_t n, uint32_t want) {
    EXPECT_EQ(Crc32c(data, n), want) << "n=" << n;
    EXPECT_EQ(fitree::storage::detail::Crc32cSoftware(data, n), want);
    for (const Crc32cKernel& k : kernels) {
      if (k.available) {
        EXPECT_EQ(k.fn(data, n), want) << k.name << " n=" << n;
      }
    }
  };
  expect_all(zeros.data(), zeros.size(), 0x8A9136AAu);
  expect_all(ones.data(), ones.size(), 0x62A8AB43u);
  expect_all(ascending.data(), ascending.size(), 0x46DD794Eu);
  expect_all(descending.data(), descending.size(), 0x113FDB5Cu);
  expect_all(check.data(), check.size(), 0xE3069283u);
  expect_all(nullptr, 0, 0u);
  // 4096 zero bytes and 4096 bytes of "123456789" repeated, as computed by
  // a bytewise reference outside this code base.
  std::vector<unsigned char> zero_page(4096, 0);
  std::vector<unsigned char> digit_page(4096);
  for (size_t i = 0; i < digit_page.size(); ++i) digit_page[i] = check[i % 9];
  expect_all(zero_page.data(), zero_page.size(), 0x98F94189u);
  expect_all(digit_page.data(), digit_page.size(), 0x2FFD48D8u);
}

// Every buffer is its own exact-size heap allocation so a kernel that reads
// one byte past the end trips ASan.
TEST(Crc32c, HardwareAndSoftwareKernelsAgree) {
  const auto kernels = AcceleratedKernels();
  std::mt19937_64 rng(20260101);
  const auto check = [&](size_t n, size_t misalign) {
    std::vector<unsigned char> buf(misalign + n);
    for (auto& b : buf) b = static_cast<unsigned char>(rng());
    const unsigned char* data = buf.data() + misalign;
    const uint32_t soft = fitree::storage::detail::Crc32cSoftware(data, n);
    EXPECT_EQ(Crc32c(data, n), soft) << "n=" << n << " misalign=" << misalign;
    for (const Crc32cKernel& k : kernels) {
      if (k.available) {
        EXPECT_EQ(k.fn(data, n), soft)
            << k.name << " n=" << n << " misalign=" << misalign;
      }
    }
  };
  for (size_t n = 0; n <= 1024; ++n) {
    for (size_t misalign = 0; misalign < 8; ++misalign) check(n, misalign);
  }
  // The folding kernel's block edges: every multiple of 256 B, and 1-15
  // bytes either side of it, where the tail switches between the 64 B
  // folds and the `crc32` words.
  for (size_t block = 256; block <= 8192; block += 256) {
    for (size_t d = 0; d < 16; ++d) {
      check(block + d, d % 8);
      if (d != 0) check(block - d, d % 8);
    }
  }
  // Page checksums cover bytes [4, page_bytes): check both the whole page
  // and the checksummed span of every power-of-two page size.
  for (size_t page = 128; page <= 65536; page *= 2) {
    check(page, 0);
    check(page - sizeof(uint32_t), sizeof(uint32_t));
  }
}

TEST(Page, SealThenVerifyRoundTrips) {
  std::vector<std::byte> page(kPageBytes, std::byte{0});
  page[kPageHeaderBytes] = std::byte{42};
  SealPage(page.data(), kPageBytes, PageType::kLeaf, 7, 3);
  PageHeader header{};
  ASSERT_TRUE(
      VerifyPage(page.data(), kPageBytes, PageType::kLeaf, 7, &header));
  EXPECT_EQ(header.page_id, 7u);
  EXPECT_EQ(header.count, 3u);
  EXPECT_EQ(header.type, static_cast<uint16_t>(PageType::kLeaf));
}

TEST(Page, AnySingleByteFlipIsDetected) {
  std::vector<std::byte> page(kPageBytes, std::byte{0});
  for (size_t i = 0; i < kPageBytes; i += 17) {
    page[kPageHeaderBytes + (i % (kPageBytes - kPageHeaderBytes))] =
        std::byte{static_cast<unsigned char>(i)};
  }
  SealPage(page.data(), kPageBytes, PageType::kLeaf, 1, 5);
  for (size_t i = 0; i < kPageBytes; ++i) {
    std::vector<std::byte> corrupt = page;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_FALSE(VerifyPage(corrupt.data(), kPageBytes, PageType::kLeaf, 1))
        << "flip at byte " << i << " went undetected";
  }
}

TEST(Page, WrongTypeOrIdIsRejected) {
  std::vector<std::byte> page(kPageBytes, std::byte{0});
  SealPage(page.data(), kPageBytes, PageType::kSegmentTable, 4, 1);
  EXPECT_TRUE(VerifyPage(page.data(), kPageBytes, PageType::kSegmentTable, 4));
  EXPECT_FALSE(VerifyPage(page.data(), kPageBytes, PageType::kLeaf, 4));
  EXPECT_FALSE(VerifyPage(page.data(), kPageBytes, PageType::kSegmentTable, 5));
}

// Format v2's page checksum: the IEEE CRC32 (reflected 0xEDB88320), kept
// here only to prove such pages no longer verify.
constexpr std::array<uint32_t, 256> MakeIeeeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}
constexpr std::array<uint32_t, 256> kCrc32Table = MakeIeeeTable();

uint32_t IeeeCrc32(const std::byte* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^
          kCrc32Table[(crc ^ static_cast<unsigned char>(p[i])) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Page, OldIeeeChecksumIsRejected) {
  std::vector<std::byte> page(kPageBytes, std::byte{0});
  page[kPageHeaderBytes] = std::byte{42};
  SealPage(page.data(), kPageBytes, PageType::kLeaf, 7, 1);
  ASSERT_TRUE(VerifyPage(page.data(), kPageBytes, PageType::kLeaf, 7));
  StoreAs(page.data(), IeeeCrc32(page.data() + sizeof(uint32_t),
                                 kPageBytes - sizeof(uint32_t)));
  EXPECT_FALSE(VerifyPage(page.data(), kPageBytes, PageType::kLeaf, 7));
}

// In-memory page source: page i is a sealed leaf page whose first record
// byte is i (mod 256). Holds pages 0..pages-1 plus any added by id, counts
// physical reads and can be told to fail specific pages.
class FakeSource : public PageSource {
 public:
  explicit FakeSource(size_t pages) {
    for (size_t i = 0; i < pages; ++i) AddPage(static_cast<uint32_t>(i));
  }

  void AddPage(uint32_t page_id) {
    std::vector<std::byte> page(kPageBytes, std::byte{0});
    page[kPageHeaderBytes] = std::byte{static_cast<unsigned char>(page_id)};
    SealPage(page.data(), kPageBytes, PageType::kLeaf, page_id, 1);
    pages_[page_id] = std::move(page);
  }

  bool ReadPageInto(uint32_t page_id, std::byte* out) override {
    const auto it = pages_.find(page_id);
    if (it == pages_.end() || failing_.count(page_id) != 0) return false;
    ++reads_;
    std::copy(it->second.begin(), it->second.end(), out);
    return true;
  }

  void FailPage(uint32_t page_id) { failing_.insert(page_id); }
  size_t reads() const { return reads_; }

 private:
  std::map<uint32_t, std::vector<std::byte>> pages_;
  std::set<uint32_t> failing_;
  size_t reads_ = 0;
};

TEST(BufferPool, CountsHitsAndMisses) {
  FakeSource source(4);
  BufferPool pool(&source, kPageBytes, 2);
  for (const uint32_t id : {0u, 1u, 0u, 1u, 0u}) {
    const std::byte* page = pool.Fetch(id);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(LoadAs<unsigned char>(page + kPageHeaderBytes), id);
    EXPECT_TRUE(pool.Unpin(id));
  }
  EXPECT_EQ(pool.stats().cache_misses, 2u);
  EXPECT_EQ(pool.stats().cache_hits, 3u);
  EXPECT_EQ(pool.stats().pages_read, 2u);
  EXPECT_EQ(pool.stats().bytes_read, 2u * kPageBytes);
  EXPECT_DOUBLE_EQ(pool.stats().HitRate(), 3.0 / 5.0);
}

TEST(BufferPool, EvictsWhenCacheSmallerThanFile) {
  FakeSource source(8);
  BufferPool pool(&source, kPageBytes, 2);
  // Two sequential sweeps over 8 pages through 2 frames: nothing survives
  // to the second sweep, so every access is a miss and a physical read.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (uint32_t id = 0; id < 8; ++id) {
      const std::byte* page = pool.Fetch(id);
      ASSERT_NE(page, nullptr);
      EXPECT_EQ(LoadAs<unsigned char>(page + kPageHeaderBytes), id);
      EXPECT_TRUE(pool.Unpin(id));
    }
  }
  EXPECT_EQ(pool.stats().cache_misses, 16u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
  EXPECT_EQ(source.reads(), 16u);
  // At most `frames` pages are ever resident.
  size_t resident = 0;
  for (uint32_t id = 0; id < 8; ++id) resident += pool.Contains(id) ? 1 : 0;
  EXPECT_EQ(resident, 2u);
}

TEST(BufferPool, ClockGivesReusedPagesASecondChance) {
  FakeSource source(8);
  BufferPool pool(&source, kPageBytes, 3);
  const auto touch = [&](uint32_t id) {
    ASSERT_NE(pool.Fetch(id), nullptr);
    EXPECT_TRUE(pool.Unpin(id));
  };
  // Page 0 is re-referenced between sweeps of {1,2,3}; its reference bit
  // keeps it resident while 1..3 rotate through the other two frames.
  touch(0);
  for (const uint32_t id : {1u, 2u, 0u, 3u, 1u, 0u, 2u, 3u, 0u}) touch(id);
  EXPECT_TRUE(pool.Contains(0));
  const IoStats stats = pool.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 10u);
  // Page 0 was read exactly once; every hit after that was served in-pool.
  EXPECT_GE(stats.cache_hits, 3u);
}

TEST(BufferPool, PinnedPagesAreNeverEvicted) {
  FakeSource source(16);
  BufferPool pool(&source, kPageBytes, 2);
  const std::byte* pinned = pool.Fetch(0);
  ASSERT_NE(pinned, nullptr);
  for (uint32_t id = 1; id < 16; ++id) {
    const std::byte* page = pool.Fetch(id);
    ASSERT_NE(page, nullptr);
    EXPECT_TRUE(pool.Unpin(id));
  }
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_EQ(LoadAs<unsigned char>(pinned + kPageHeaderBytes), 0u);
  EXPECT_TRUE(pool.Unpin(0));
}

TEST(BufferPool, AllFramesPinnedFailsCleanly) {
  FakeSource source(4);
  BufferPool pool(&source, kPageBytes, 2);
  ASSERT_NE(pool.Fetch(0), nullptr);
  ASSERT_NE(pool.Fetch(1), nullptr);
  EXPECT_EQ(pool.Fetch(2), nullptr);  // no evictable frame
  EXPECT_TRUE(pool.Unpin(1));
  EXPECT_NE(pool.Fetch(2), nullptr);  // frame freed, fetch succeeds
  EXPECT_TRUE(pool.Unpin(2));
  EXPECT_TRUE(pool.Unpin(0));
}

// One frame: a failed read takes no pin, and the frame it was read into
// serves the next fetch.
TEST(BufferPool, FailedReadReturnsNullAndStaysUncached) {
  FakeSource source(4);
  source.FailPage(2);
  BufferPool pool(&source, kPageBytes, 1);
  EXPECT_EQ(pool.Fetch(2), nullptr);
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.Unpin(2));
  EXPECT_EQ(pool.stats().cache_misses, 1u);
  EXPECT_EQ(pool.stats().pages_read, 0u);
  // The pool still works for healthy pages afterwards, and a failed read
  // evicts the resident page it replaces.
  for (const uint32_t id : {1u, 3u}) {
    const std::byte* page = pool.Fetch(id);
    ASSERT_NE(page, nullptr) << id;
    EXPECT_EQ(LoadAs<unsigned char>(page + kPageHeaderBytes), id);
    EXPECT_TRUE(pool.Unpin(id));
    EXPECT_EQ(pool.Fetch(2), nullptr);
    EXPECT_FALSE(pool.Contains(id));
    EXPECT_FALSE(pool.Unpin(2));
  }
  EXPECT_EQ(pool.stats().cache_misses, 5u);
  EXPECT_EQ(pool.stats().pages_read, 2u);
}

TEST(BufferPool, UnpinMisuseReturnsFalseWithoutStateDamage) {
  FakeSource source(4);
  BufferPool pool(&source, kPageBytes, 2);
  // Non-resident page: hard error in every build type, state untouched.
  EXPECT_FALSE(pool.Unpin(3));
  ASSERT_NE(pool.Fetch(0), nullptr);
  EXPECT_TRUE(pool.Unpin(0));
  // Pin already at zero: underflow is rejected, not wrapped.
  EXPECT_FALSE(pool.Unpin(0));
  // The frame is still healthy: fetch + unpin cycle works.
  ASSERT_NE(pool.Fetch(0), nullptr);
  EXPECT_TRUE(pool.Unpin(0));
  EXPECT_EQ(pool.stats().pages_read, 1u);
}

// Sparse, large page ids on a 2-frame pool: the page table is indexed by
// page id, so it must grow only when a page is installed, map evicted and
// failed ids back to absent, and answer ids past its end without growing.
TEST(BufferPool, SparseLargePageIdsUseThePageTableDirectly) {
  FakeSource source(1);  // page 0
  for (const uint32_t id : {7u, 65536u, 1048579u, 2000000u, 3000000u}) {
    source.AddPage(id);
  }
  source.FailPage(2000000);
  source.FailPage(3000000);
  BufferPool pool(&source, kPageBytes, 2);
  EXPECT_EQ(pool.PageTableSize(), 0u);

  const auto touch = [&](uint32_t id) {
    const std::byte* page = pool.Fetch(id);
    ASSERT_NE(page, nullptr) << id;
    EXPECT_EQ(LoadAs<unsigned char>(page + kPageHeaderBytes),
              static_cast<unsigned char>(id));
    EXPECT_TRUE(pool.Unpin(id));
  };
  touch(0);
  touch(7);
  touch(0);  // hit
  EXPECT_EQ(pool.PageTableSize(), 8u);
  touch(65536);    // CLOCK clears both reference bits, evicts 0
  touch(1048579);  // evicts 7
  touch(65536);    // hit
  EXPECT_EQ(pool.stats().cache_hits, 2u);
  EXPECT_EQ(pool.stats().cache_misses, 4u);
  EXPECT_EQ(source.reads(), 4u);
  EXPECT_EQ(pool.PageTableSize(), 1048580u);
  for (const uint32_t evicted : {0u, 7u}) {
    EXPECT_FALSE(pool.Contains(evicted)) << evicted;
    EXPECT_FALSE(pool.Unpin(evicted)) << evicted;
  }
  EXPECT_TRUE(pool.Contains(65536));
  EXPECT_TRUE(pool.Contains(1048579));

  // Ids past the table's end: absent, and the table does not grow.
  for (const uint32_t past : {1048580u, 2500000u, UINT32_MAX - 1}) {
    EXPECT_FALSE(pool.Contains(past)) << past;
    EXPECT_FALSE(pool.Unpin(past)) << past;
  }
  EXPECT_EQ(pool.PageTableSize(), 1048580u);

  // A failed read leaves its id unmapped and the table unchanged.
  for (const uint32_t failed : {2000000u, 3000000u}) {
    EXPECT_EQ(pool.Fetch(failed), nullptr) << failed;
    EXPECT_EQ(pool.PageTableSize(), 1048580u) << failed;
    EXPECT_FALSE(pool.Contains(failed)) << failed;
    EXPECT_FALSE(pool.Unpin(failed)) << failed;
  }
  touch(7);
  EXPECT_EQ(pool.PageTableSize(), 1048580u);
  EXPECT_EQ(pool.stats().pages_read, 5u);
}

TEST(SegmentFile, WriteReopenRoundTripsMetaAndSegments) {
  const auto keys = EveryThird(1000);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 8.0);
  const auto exported = tree->ExportSegmentTable();
  const std::string path = TempPath("roundtrip.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));

  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error_message();
  EXPECT_EQ(reader.meta().key_count, keys.size());
  EXPECT_EQ(reader.meta().segment_count, exported.size());
  EXPECT_EQ(reader.meta().page_bytes, kPageBytes);
  EXPECT_DOUBLE_EQ(reader.meta().error, 8.0);

  std::vector<SegmentRecord<int64_t>> reloaded;
  ASSERT_TRUE(reader.ReadSegmentTable(&reloaded));
  ASSERT_EQ(reloaded.size(), exported.size());
  // Fresh files lay segments out back to back starting at the first leaf
  // page, each segment page-aligned (v2 addressing).
  uint64_t next_page = reader.meta().leaf_first_page;
  const size_t cap = reader.meta().leaf_capacity;
  for (size_t i = 0; i < reloaded.size(); ++i) {
    EXPECT_EQ(reloaded[i].seg, exported[i]);
    EXPECT_EQ(reloaded[i].first_leaf_page, next_page);
    next_page += (exported[i].length + cap - 1) / cap;
  }
  EXPECT_EQ(next_page, reader.meta().total_pages);
  std::remove(path.c_str());
}

TEST(SegmentFile, LeafPagesHoldEveryKeyInRankOrder) {
  const auto keys = EveryThird(500);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 4.0);
  const std::string path = TempPath("leaves.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));
  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path));
  const size_t cap = reader.meta().leaf_capacity;
  EXPECT_EQ(cap, LeafCapacity<int64_t>(kPageBytes));
  ASSERT_GT(reader.meta().leaf_page_count, 1u);  // multi-page file

  std::vector<std::byte> page(kPageBytes);
  size_t rank = 0;
  for (uint64_t leaf = 0; leaf < reader.meta().leaf_page_count; ++leaf) {
    ASSERT_TRUE(reader.ReadPageInto(reader.LeafPageId(leaf), page.data()));
    const PageHeader header = LoadAs<PageHeader>(page.data());
    for (uint32_t slot = 0; slot < header.count; ++slot, ++rank) {
      const auto entry = LoadAs<LeafEntry<int64_t>>(
          page.data() + kPageHeaderBytes + slot * sizeof(LeafEntry<int64_t>));
      EXPECT_EQ(entry.key, keys[rank]);
      EXPECT_EQ(entry.value, rank);  // WriteIndexFile payload is the rank
    }
  }
  EXPECT_EQ(rank, keys.size());
  std::remove(path.c_str());
}

TEST(SegmentFile, CustomPayloadsRoundTrip) {
  const auto keys = EveryThird(300);
  std::vector<uint64_t> values;
  for (const int64_t k : keys) {
    values.push_back(static_cast<uint64_t>(7 * k + 1));
  }
  const auto segments =
      MakeFixedSegments(std::span<const int64_t>(keys), 32);
  const std::string path = TempPath("payloads.fit");
  ASSERT_TRUE(fitree::storage::WriteSegmentFile<int64_t>(
      path, keys, values, segments, /*error=*/32.0,
      SegmentFileOptions{kPageBytes}));
  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path));
  std::vector<std::byte> page(kPageBytes);
  ASSERT_TRUE(reader.ReadPageInto(reader.LeafPageId(0), page.data()));
  const auto entry = LoadAs<LeafEntry<int64_t>>(page.data() + kPageHeaderBytes);
  EXPECT_EQ(entry.key, keys[0]);
  EXPECT_EQ(entry.value, values[0]);
  std::remove(path.c_str());
}

// Flips one payload byte in the middle of page `page_id` of `path`.
void CorruptPage(const std::string& path, uint32_t page_id) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long offset =
      static_cast<long>(page_id) * kPageBytes + kPageBytes / 2;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, f);
  std::fclose(f);
}

TEST(SegmentFile, CorruptedPageIsRejectedByReaderAndPool) {
  const auto keys = EveryThird(600);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 8.0);
  const std::string path = TempPath("corrupt.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));

  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path));
  const uint32_t victim = reader.LeafPageId(1);
  reader.Close();
  CorruptPage(path, victim);

  ASSERT_TRUE(reader.Open(path));  // meta page is intact
  std::vector<std::byte> page(kPageBytes);
  EXPECT_TRUE(reader.ReadPageInto(reader.LeafPageId(0), page.data()));
  EXPECT_FALSE(reader.ReadPageInto(victim, page.data()));

  BufferPool pool(&reader, kPageBytes, 4);
  EXPECT_NE(pool.Fetch(reader.LeafPageId(0)), nullptr);
  EXPECT_TRUE(pool.Unpin(reader.LeafPageId(0)));
  EXPECT_EQ(pool.Fetch(victim), nullptr);
  EXPECT_FALSE(pool.Contains(victim));
  std::remove(path.c_str());
}

// Good leaves, a corrupted leaf, and an id past page_count() that lands on
// a CRC-valid leaf appended by a republish interrupted before its meta
// write, read through the reader and through a pool over it. Only the good
// ids come back: the stray page passes VerifyPage, so the bounds check
// alone rejects it.
TEST(SegmentFile, ReadPageIntoRejectsCorruptAndOutOfRangePages) {
  const auto keys = EveryThird(3000);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 8.0);
  const std::string path = TempPath("torn_batch.fit");
  const std::string torn = TempPath("torn_batch_copy.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));
  {
    DiskFitingTree<int64_t>::Options options;
    options.compact_hook = [&](CompactPoint point) {
      if (point != CompactPoint::kAppendSynced) return;
      std::filesystem::copy_file(
          path, torn, std::filesystem::copy_options::overwrite_existing);
    };
    auto disk = DiskFitingTree<int64_t>::Open(path, options);
    ASSERT_NE(disk, nullptr);
    for (int64_t k = 1; k < 600; k += 3) disk->Insert(k, 7);
    ASSERT_TRUE(disk->CompactSegment(0));
  }

  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(torn)) << reader.error_message();
  const uint32_t victim = reader.LeafPageId(1);
  const uint64_t file_pages = std::filesystem::file_size(torn) / kPageBytes;
  ASSERT_GT(file_pages, reader.page_count());
  std::vector<std::byte> page(kPageBytes);
  uint32_t stray = 0;
  std::FILE* f = std::fopen(torn.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  for (uint64_t id = reader.page_count(); id < file_pages && stray == 0;
       ++id) {
    ASSERT_EQ(std::fseek(f, static_cast<long>(id * kPageBytes), SEEK_SET), 0);
    ASSERT_EQ(std::fread(page.data(), 1, kPageBytes, f), kPageBytes);
    if (VerifyPage(page.data(), kPageBytes, PageType::kLeaf,
                   static_cast<uint32_t>(id))) {
      stray = static_cast<uint32_t>(id);
    }
  }
  std::fclose(f);
  ASSERT_NE(stray, 0u) << "the republish appended no leaf page";
  reader.Close();
  CorruptPage(torn, victim);

  ASSERT_TRUE(reader.Open(torn)) << reader.error_message();
  const uint32_t ids[] = {reader.LeafPageId(0), victim, stray,
                          reader.LeafPageId(2), reader.LeafPageId(3)};
  const bool want_ok[] = {true, false, false, true, true};
  constexpr size_t kN = sizeof(ids) / sizeof(ids[0]);
  BufferPool pool(&reader, kPageBytes, kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(reader.ReadPageInto(ids[i], page.data()), want_ok[i])
        << "page " << ids[i];
    const std::byte* frame = pool.Fetch(ids[i]);
    EXPECT_EQ(frame != nullptr, want_ok[i]) << "page " << ids[i];
    if (frame == nullptr) {
      EXPECT_FALSE(pool.Contains(ids[i])) << "page " << ids[i];
      continue;
    }
    EXPECT_TRUE(std::equal(page.begin(), page.end(), frame))
        << "page " << ids[i];
    EXPECT_TRUE(pool.Unpin(ids[i]));
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(SegmentFile, CorruptedMetaFailsOpenOnlyWhenBothSlotsDie) {
  const auto keys = EveryThird(100);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 8.0);
  const std::string path = TempPath("badmeta.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));
  const auto corrupt_slot = [&](uint32_t slot) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(slot) * kPageBytes +
                                kPageHeaderBytes,
                         SEEK_SET),
              0);  // magic field
    std::fputc('X', f);
    std::fclose(f);
  };
  // One torn slot is survivable: the ping-pong twin still opens the file.
  corrupt_slot(0);
  SegmentFileReader<int64_t> reader;
  EXPECT_TRUE(reader.Open(path)) << reader.error_message();
  EXPECT_EQ(reader.meta().key_count, keys.size());
  reader.Close();
  // Both slots torn: nothing left to trust.
  corrupt_slot(1);
  EXPECT_FALSE(reader.Open(path));
  std::remove(path.c_str());
}

// A file whose meta slots are intact apart from an older format version
// is named as such, not as a foreign file.
TEST(SegmentFile, OldFormatVersionIsNamedAtOpen) {
  const auto keys = EveryThird(100);
  const auto tree = StaticFitingTree<int64_t>::Create(keys, 8.0);
  const std::string path = TempPath("oldversion.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *tree,
                                              SegmentFileOptions{kPageBytes}));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  for (uint32_t slot = 0; slot < fitree::storage::kNumMetaSlots; ++slot) {
    std::vector<std::byte> page(kPageBytes);
    const long offset = static_cast<long>(slot) * kPageBytes;
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fread(page.data(), 1, kPageBytes, f), kPageBytes);
    const auto header = LoadAs<PageHeader>(page.data());
    auto meta = LoadAs<SegmentFileMeta>(page.data() + kPageHeaderBytes);
    meta.format_version = 2;
    StoreAs(page.data() + kPageHeaderBytes, meta);
    SealPage(page.data(), kPageBytes, PageType::kMeta, slot, header.count);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(page.data(), 1, kPageBytes, f), kPageBytes);
  }
  std::fclose(f);

  SegmentFileReader<int64_t> reader;
  EXPECT_FALSE(reader.Open(path));
  EXPECT_NE(reader.error_message().find("unsupported format version 2"),
            std::string::npos)
      << reader.error_message();
  EXPECT_NE(reader.error_message().find("expected 3"), std::string::npos)
      << reader.error_message();
  EXPECT_EQ(DiskFitingTree<int64_t>::Open(path), nullptr);
  std::remove(path.c_str());
}

TEST(SegmentFile, OpenRejectsMissingAndTruncatedFiles) {
  SegmentFileReader<int64_t> reader;
  EXPECT_FALSE(reader.Open(TempPath("does_not_exist.fit")));

  const std::string path = TempPath("truncated.fit");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("short", f);
  std::fclose(f);
  EXPECT_FALSE(reader.Open(path));
  std::remove(path.c_str());
}

TEST(SegmentFile, WriterRejectsNonPartitioningSegments) {
  const auto keys = EveryThird(100);
  auto segments = MakeFixedSegments(std::span<const int64_t>(keys), 16);
  segments.back().length -= 1;  // no longer covers every key
  EXPECT_FALSE(fitree::storage::WriteSegmentFile<int64_t>(
      TempPath("badsegs.fit"), keys, {}, segments, 16.0,
      SegmentFileOptions{kPageBytes}));
}

TEST(SegmentFile, MakeFixedSegmentsPartitionsKeys) {
  const auto keys = EveryThird(103);  // deliberately not a multiple
  const auto segments = MakeFixedSegments(std::span<const int64_t>(keys), 16);
  ASSERT_EQ(segments.size(), 7u);
  uint64_t covered = 0;
  for (const auto& s : segments) {
    EXPECT_EQ(s.start, covered);
    EXPECT_EQ(s.first_key, keys[covered]);
    EXPECT_DOUBLE_EQ(s.Predict(keys[covered]), static_cast<double>(covered));
    covered += s.length;
  }
  EXPECT_EQ(covered, keys.size());
}

// FNV-1a over a whole file: the golden test's fingerprint of its bytes.
uint64_t HashFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return 0;
  uint64_t h = 0xCBF29CE484222325ull;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    h = (h ^ static_cast<uint64_t>(c)) * 0x100000001B3ull;
  }
  std::fclose(f);
  return h;
}

// Pins format v3 byte for byte: a bulk-written file, then the same file
// after one incremental compaction of a seeded overlay, must hash to the
// values the format was defined with. A deliberate format change bumps
// kPageFormatVersion and updates both constants in the same change.
TEST(SegmentFile, FormatBytesAreStable) {
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::mt19937_64 rng(2024);  // its output sequence is fixed by the standard
  int64_t key = 0;
  for (int i = 0; i < 600; ++i) {
    key += 1 + static_cast<int64_t>(rng() % 512);
    keys.push_back(key);
    values.push_back(rng());
  }
  std::vector<PackedSegment<int64_t>> segments;
  for (const auto& s :
       fitree::SegmentShrinkingCone<int64_t>(std::span<const int64_t>(keys),
                                             4.0)) {
    segments.push_back(s.Pack());
  }
  const std::string path = TempPath("golden.fit");
  ASSERT_TRUE(fitree::storage::WriteSegmentFile<int64_t>(
      path, keys, values, segments, 4.0, SegmentFileOptions{kPageBytes}));
  EXPECT_EQ(HashFile(path), 0x73406775c061b308ull);

  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr);
  // A multi-page segment table.
  ASSERT_GT(tree->SegmentCount(),
            fitree::storage::SegmentCapacity<int64_t>(kPageBytes));
  // The overlay lands on one middle segment, which the compaction splits.
  const size_t slot = segments.size() / 2;
  const PackedSegment<int64_t>& target = segments[slot];
  for (int op = 0; op < 300; ++op) {
    // One draw per statement: argument evaluation order is unspecified.
    const int64_t paged = keys[target.start + rng() % target.length];
    switch (rng() % 3) {
      case 0: {
        const int64_t k = paged + 1 + static_cast<int64_t>(rng() % 60);
        const uint64_t v = rng();
        tree->Insert(k, v);
        break;
      }
      case 1:
        tree->Update(paged, rng());
        break;
      default:
        tree->Delete(paged);
    }
  }
  ASSERT_TRUE(tree->CompactSegment(slot));
  ASSERT_GT(tree->SegmentCount(), segments.size());
  tree.reset();
  EXPECT_EQ(HashFile(path), 0xad83cf437fd6db6full);
  std::remove(path.c_str());
}

}  // namespace
