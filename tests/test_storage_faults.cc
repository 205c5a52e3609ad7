// Failure-path coverage for the storage layer: fault-injected
// writes through the PageSink seam, torn and truncated index files against
// SegmentFileReader::Open / ReadPageInto, crash-leftover resolution for
// the full-rewrite temp file, and a fork-based kill-at-point replay that
// interrupts both compaction paths at every CompactPoint and proves the
// index reopens valid (old generation or new, never a torn one).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/static_fiting_tree.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"

namespace {

using fitree::StaticFitingTree;
using fitree::storage::CompactPoint;
using fitree::storage::DiskFitingTree;
using fitree::storage::FilePageSink;
using fitree::storage::PageReadRequest;
using fitree::storage::PageSink;
using fitree::storage::SegmentFileOptions;
using fitree::storage::SegmentFileReader;
using fitree::storage::WriteIndexFile;
using fitree::storage::WriteSegmentFile;

constexpr size_t kPageBytes = 256;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// Base payloads are a pure function of the key so both fork sides agree.
uint64_t BasePayload(int64_t key) { return static_cast<uint64_t>(key) * 3 + 1; }

std::vector<int64_t> BaseKeys(size_t n) {
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(static_cast<int64_t>(i) * 10);
  return keys;
}

bool WriteBaseFile(const std::string& path, size_t n, double error = 16.0) {
  const auto keys = BaseKeys(n);
  std::vector<uint64_t> values;
  values.reserve(n);
  for (int64_t k : keys) values.push_back(BasePayload(k));
  auto tree = StaticFitingTree<int64_t>::Create(keys, values, error);
  return WriteIndexFile(path, *tree, SegmentFileOptions{kPageBytes});
}

// --- fault-injecting sink --------------------------------------------------

// Wraps a delegate sink, failing WritePage after `fail_after_pages` pages
// and/or failing Finish, while recording the call sequence so tests can
// assert the durability ordering (every page streamed, then exactly one
// Finish — the fsync — before the writer reports success).
class FaultSink final : public PageSink {
 public:
  explicit FaultSink(PageSink* delegate) : delegate_(delegate) {}

  bool WritePage(const std::byte* page, size_t page_bytes) override {
    if (finish_calls_ > 0) ordered_ = false;  // a write after fsync: broken
    ++pages_written_;
    if (fail_after_pages_ >= 0 &&
        pages_written_ > static_cast<size_t>(fail_after_pages_)) {
      return false;
    }
    return delegate_ == nullptr || delegate_->WritePage(page, page_bytes);
  }

  bool Finish() override {
    ++finish_calls_;
    if (fail_finish_) return false;
    return delegate_ == nullptr || delegate_->Finish();
  }

  void FailAfterPages(int n) { fail_after_pages_ = n; }
  void FailFinish() { fail_finish_ = true; }
  size_t pages_written() const { return pages_written_; }
  size_t finish_calls() const { return finish_calls_; }
  bool ordered() const { return ordered_; }

 private:
  PageSink* delegate_;
  int fail_after_pages_ = -1;
  bool fail_finish_ = false;
  size_t pages_written_ = 0;
  size_t finish_calls_ = 0;
  bool ordered_ = true;
};

TEST(FaultSink, SuccessfulWriteStreamsAllPagesThenSyncsExactlyOnce) {
  const std::string path = TempPath("sink_ok.fit");
  FilePageSink file(path);
  ASSERT_TRUE(file.is_open());
  FaultSink sink(&file);
  const auto keys = BaseKeys(200);
  std::vector<uint64_t> values;
  for (int64_t k : keys) values.push_back(BasePayload(k));
  auto tree = StaticFitingTree<int64_t>::Create(keys, values, 16.0);
  SegmentFileOptions opts{kPageBytes};
  opts.sink = &sink;
  ASSERT_TRUE(WriteIndexFile(path, *tree, opts));
  EXPECT_TRUE(sink.ordered());
  EXPECT_EQ(sink.finish_calls(), 1u);
  EXPECT_GT(sink.pages_written(), 2u);  // meta slots + table + leaves
  // The injected sink streamed into a real file, so it must reopen.
  SegmentFileReader<int64_t> reader;
  EXPECT_TRUE(reader.Open(path)) << reader.error_message();
  EXPECT_EQ(reader.meta().key_count, 200u);
  std::remove(path.c_str());
}

TEST(FaultSink, FailedPageWriteFailsTheWriter) {
  FaultSink sink(nullptr);
  sink.FailAfterPages(2);
  const auto keys = BaseKeys(200);
  std::vector<uint64_t> values;
  for (int64_t k : keys) values.push_back(BasePayload(k));
  auto tree = StaticFitingTree<int64_t>::Create(keys, values, 16.0);
  SegmentFileOptions opts{kPageBytes};
  opts.sink = &sink;
  EXPECT_FALSE(WriteIndexFile(TempPath("unused.fit"), *tree, opts));
}

TEST(FaultSink, FailedFsyncFailsTheWriterEvenWithAllPagesWritten) {
  // The satellite-1 regression: a writer that streamed every page but
  // could not make them durable must NOT report success.
  FaultSink sink(nullptr);
  sink.FailFinish();
  const auto keys = BaseKeys(64);
  std::vector<uint64_t> values;
  for (int64_t k : keys) values.push_back(BasePayload(k));
  auto tree = StaticFitingTree<int64_t>::Create(keys, values, 16.0);
  SegmentFileOptions opts{kPageBytes};
  opts.sink = &sink;
  EXPECT_FALSE(WriteIndexFile(TempPath("unused2.fit"), *tree, opts));
  EXPECT_EQ(sink.finish_calls(), 1u);
  EXPECT_TRUE(sink.ordered());
}

// --- torn / truncated files ------------------------------------------------

class TornFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("torn.fit");
    ASSERT_TRUE(WriteBaseFile(path_, 500));
    struct stat st{};
    ASSERT_EQ(::stat(path_.c_str(), &st), 0);
    full_size_ = static_cast<size_t>(st.st_size);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void TruncateTo(size_t bytes) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(bytes)), 0);
  }

  void FlipByteAt(size_t offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    ASSERT_EQ(std::fclose(f), 0);
  }

  std::string path_;
  size_t full_size_ = 0;
};

TEST_F(TornFile, ShorterThanAMetaPageFailsOpen) {
  TruncateTo(kPageBytes / 2);
  SegmentFileReader<int64_t> reader;
  EXPECT_FALSE(reader.Open(path_));
  EXPECT_FALSE(reader.error_message().empty());
}

TEST_F(TornFile, TruncatedLeafRegionFailsOpenBySizeCheck) {
  TruncateTo(full_size_ - kPageBytes);
  SegmentFileReader<int64_t> reader;
  EXPECT_FALSE(reader.Open(path_));
  EXPECT_NE(reader.error_message().find("file size"), std::string::npos)
      << reader.error_message();
}

TEST_F(TornFile, MetaOnlyPrefixFailsOpen) {
  TruncateTo(kPageBytes * 2);  // both meta slots survive, table is gone
  SegmentFileReader<int64_t> reader;
  EXPECT_FALSE(reader.Open(path_));
}

TEST_F(TornFile, BadCrcMidFileFailsThatPageOnly) {
  SegmentFileReader<int64_t> probe;
  ASSERT_TRUE(probe.Open(path_)) << probe.error_message();
  const uint32_t bad = static_cast<uint32_t>(probe.meta().leaf_first_page) + 1;
  const uint32_t good = bad + 1;
  ASSERT_LT(good, probe.meta().total_pages);
  FlipByteAt(static_cast<size_t>(bad) * kPageBytes + kPageBytes / 2);

  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path_)) << reader.error_message();  // meta is fine
  std::vector<std::byte> buf(kPageBytes * 2);
  EXPECT_FALSE(reader.ReadPageInto(bad, buf.data()));
  EXPECT_TRUE(reader.ReadPageInto(good, buf.data()));

  // A batch containing the torn page fails only that request.
  PageReadRequest reqs[2] = {{bad, buf.data(), false},
                             {good, buf.data() + kPageBytes, false}};
  reader.ReadPagesInto(reqs, 2);
  EXPECT_FALSE(reqs[0].ok);
  EXPECT_TRUE(reqs[1].ok);
}

TEST_F(TornFile, OutOfRangePageReadFails) {
  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path_)) << reader.error_message();
  std::vector<std::byte> buf(kPageBytes);
  EXPECT_FALSE(reader.ReadPageInto(
      static_cast<uint32_t>(reader.meta().total_pages), buf.data()));
}

TEST_F(TornFile, TrailingGarbageBeyondTotalPagesIsLegal) {
  // Interrupted appends leave bytes past total_pages; Open must accept
  // them (the size check is >=, not ==).
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::vector<char> junk(kPageBytes * 3, 0x5A);
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  ASSERT_EQ(std::fclose(f), 0);
  SegmentFileReader<int64_t> reader;
  EXPECT_TRUE(reader.Open(path_)) << reader.error_message();
  EXPECT_EQ(reader.meta().key_count, 500u);
}

// --- crash-leftover resolution around the full Compact's rename ------------

TEST(CrashLeftovers, OrphanTmpNextToLiveTargetIsRemoved) {
  const std::string path = TempPath("leftover_both.fit");
  const std::string tmp = path + ".compact";
  ASSERT_TRUE(WriteBaseFile(path, 100));
  ASSERT_TRUE(WriteBaseFile(tmp, 300));  // a newer, bigger interrupted rewrite
  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr);
  // The live target wins; the orphan is gone.
  EXPECT_EQ(tree->size(), 100u);
  struct stat st{};
  EXPECT_NE(::stat(tmp.c_str(), &st), 0);
  std::remove(path.c_str());
}

TEST(CrashLeftovers, CompletedTmpWithoutTargetIsAdopted) {
  const std::string path = TempPath("leftover_adopt.fit");
  const std::string tmp = path + ".compact";
  ASSERT_TRUE(WriteBaseFile(tmp, 300));
  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->size(), 300u);
  EXPECT_EQ(tree->Lookup(290 * 10), std::optional<uint64_t>(
                                        BasePayload(290 * 10)));
  // The adoption renamed the tmp into place.
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_NE(::stat(tmp.c_str(), &st), 0);
  std::remove(path.c_str());
}

TEST(CrashLeftovers, MissingTargetAndNoTmpFailsOpen) {
  EXPECT_EQ(DiskFitingTree<int64_t>::Open(TempPath("nothing_here.fit")),
            nullptr);
}

// --- kill-at-point replay for both compaction paths ------------------------

constexpr size_t kCrashKeys = 400;
constexpr int64_t kSentinel = 0;           // first key, lands in segment 0
constexpr uint64_t kNewPayload = 900000;   // distinct from every BasePayload

// In the child: open the index, route a few updates through the overlay
// (the sentinel included), then run the chosen compaction path with a hook
// that dies — no flush, no teardown — the moment `point` is reached.
// Never returns.
[[noreturn]] void ChildCrashingAt(const std::string& path, CompactPoint point,
                                  bool incremental) {
  typename DiskFitingTree<int64_t>::Options options;
  options.cache_pages = 64;
  options.compact_hook = [point](CompactPoint p) {
    if (p == point) _exit(0);
  };
  auto tree = DiskFitingTree<int64_t>::Open(path, options);
  if (tree == nullptr) _exit(3);
  for (int64_t k = 0; k < 5; ++k) {
    if (!tree->Update(k * 10, kNewPayload + static_cast<uint64_t>(k))) {
      _exit(4);
    }
  }
  const bool ok = incremental ? tree->CompactSegment(0) : tree->Compact();
  _exit(ok ? 1 : 2);  // hook never fired: the point wasn't on this path
}

// In the parent: the reopened index must be wholly old-generation or
// wholly new-generation — sentinel decides which — and every key must
// carry that generation's payload.
void ExpectConsistentGeneration(const std::string& path) {
  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr) << "index failed to reopen after simulated crash";
  ASSERT_EQ(tree->size(), kCrashKeys);
  const auto sentinel = tree->Lookup(kSentinel);
  ASSERT_TRUE(sentinel.has_value());
  const bool new_gen = *sentinel >= kNewPayload;
  for (int64_t i = 0; i < static_cast<int64_t>(kCrashKeys); ++i) {
    const int64_t key = i * 10;
    const auto got = tree->Lookup(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    const uint64_t want = (new_gen && i < 5)
                              ? kNewPayload + static_cast<uint64_t>(i)
                              : BasePayload(key);
    EXPECT_EQ(*got, want) << "key " << key << " (new_gen=" << new_gen << ")";
  }
}

void RunCrashPoint(CompactPoint point, bool incremental,
                   const std::string& name) {
  const std::string path = TempPath("crash_" + name + ".fit");
  ASSERT_TRUE(WriteBaseFile(path, kCrashKeys));
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildCrashingAt(path, point, incremental);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
  ASSERT_EQ(WEXITSTATUS(status), 0)
      << "child exit " << WEXITSTATUS(status)
      << " (1/2: hook never fired, 3: open failed, 4: update failed)";
  ExpectConsistentGeneration(path);
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

TEST(CrashReplay, FullCompactTmpWritten) {
  RunCrashPoint(CompactPoint::kTmpWritten, false, "tmp_written");
}
TEST(CrashReplay, FullCompactTmpSynced) {
  RunCrashPoint(CompactPoint::kTmpSynced, false, "tmp_synced");
}
TEST(CrashReplay, FullCompactRenamed) {
  RunCrashPoint(CompactPoint::kRenamed, false, "renamed");
}
TEST(CrashReplay, FullCompactDirSynced) {
  RunCrashPoint(CompactPoint::kDirSynced, false, "dir_synced");
}
TEST(CrashReplay, IncrementalAppendWritten) {
  RunCrashPoint(CompactPoint::kAppendWritten, true, "append_written");
}
TEST(CrashReplay, IncrementalAppendSynced) {
  RunCrashPoint(CompactPoint::kAppendSynced, true, "append_synced");
}
TEST(CrashReplay, IncrementalMetaWritten) {
  RunCrashPoint(CompactPoint::kMetaWritten, true, "meta_written");
}
TEST(CrashReplay, IncrementalMetaSynced) {
  RunCrashPoint(CompactPoint::kMetaSynced, true, "meta_synced");
}

// The threshold-driven path reaches the same incremental machinery from a
// plain mutation: route overlay entries at one segment until one brings
// its overlay to the threshold, and crash inside the compaction that very
// mutation runs.
TEST(CrashReplay, ThresholdDrivenCompactionSurvivesKillAtMetaWritten) {
  const std::string path = TempPath("crash_threshold.fit");
  ASSERT_TRUE(WriteBaseFile(path, kCrashKeys));
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // max(8, len/100): the 8th overlay entry crosses the threshold.
    constexpr int64_t kCrossing = 7;
    int64_t in_flight = -1;  // index of the Update being applied
    typename DiskFitingTree<int64_t>::Options options;
    options.cache_pages = 64;
    options.compact_threshold_pct = 1;
    options.compact_hook = [&in_flight](CompactPoint p) {
      if (p != CompactPoint::kMetaWritten) return;
      // Compacted by the wrong mutation: the trigger is off by some.
      _exit(in_flight == kCrossing ? 0 : 5);
    };
    auto tree = DiskFitingTree<int64_t>::Open(path, options);
    if (tree == nullptr) _exit(3);
    for (int64_t k = 0; k < 64; ++k) {
      in_flight = k;
      if (!tree->Update(k * 10, 1)) _exit(4);
    }
    _exit(1);  // never ran a compaction: the trigger is broken
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "child exit " << WEXITSTATUS(status);
  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->size(), kCrashKeys);
  for (int64_t i = 0; i < static_cast<int64_t>(kCrashKeys); ++i) {
    const auto got = tree->Lookup(i * 10);
    ASSERT_TRUE(got.has_value()) << "key " << i * 10;
    EXPECT_TRUE(*got == BasePayload(i * 10) || *got == 1) << "key " << i * 10;
  }
  std::remove(path.c_str());
}

// Completed incremental compaction round-trips durably (the non-crash
// baseline for the replay above): the folded payloads survive reopen.
TEST(CrashReplay, CompletedIncrementalCompactionIsDurable) {
  const std::string path = TempPath("incr_durable.fit");
  ASSERT_TRUE(WriteBaseFile(path, kCrashKeys));
  {
    auto tree = DiskFitingTree<int64_t>::Open(path);
    ASSERT_NE(tree, nullptr);
    for (int64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(tree->Update(k * 10, kNewPayload + static_cast<uint64_t>(k)));
    }
    ASSERT_TRUE(tree->CompactSegment(0));
    EXPECT_EQ(tree->IncrementalCompactions(), 1u);
  }
  auto tree = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(tree, nullptr);
  for (int64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(tree->Lookup(k * 10),
              std::optional<uint64_t>(kNewPayload + static_cast<uint64_t>(k)));
  }
  EXPECT_EQ(tree->Lookup(100 * 10),
            std::optional<uint64_t>(BasePayload(100 * 10)));
  std::remove(path.c_str());
}

}  // namespace
