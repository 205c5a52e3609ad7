// Tests for the telemetry subsystem (telemetry/): histogram percentile
// accuracy against a sorted-sample oracle, multi-threaded counter folding
// (run under TSan in CI), registry snapshot isolation, the
// instrumentation helpers and phase spans against the process-wide
// registry, and the Stats() structural snapshots of all four engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "core/static_fiting_tree.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "telemetry/histogram.h"
#include "telemetry/metrics.h"
#include "telemetry/perf_counters.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

namespace {

using namespace fitree::telemetry;

// --- histogram buckets ----------------------------------------------------

TEST(HdrBuckets, ExactBelowSixteen) {
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(hdr::BucketIndex(v), v);
    EXPECT_EQ(hdr::BucketUpper(hdr::BucketIndex(v)), v);
  }
}

TEST(HdrBuckets, UpperBoundsValueWithinRelativeError) {
  std::mt19937_64 rng(7);
  std::vector<uint64_t> values;
  // Dense small values, then random values at every magnitude including
  // the extremes of the 64-bit range.
  for (uint64_t v = 0; v < 4096; ++v) values.push_back(v);
  for (int shift = 12; shift < 64; ++shift) {
    for (int i = 0; i < 64; ++i) {
      values.push_back((uint64_t{1} << shift) | (rng() >> (64 - shift)));
    }
  }
  values.push_back(UINT64_MAX);
  for (const uint64_t v : values) {
    const size_t index = hdr::BucketIndex(v);
    ASSERT_LT(index, hdr::kNumBuckets);
    const uint64_t upper = hdr::BucketUpper(index);
    EXPECT_GE(upper, v);
    // Bucket width is at most v/16: within 6.25% relative error.
    EXPECT_LE(upper - v, v / 16 + 1) << "v=" << v;
  }
}

TEST(HdrBuckets, IndexMonotoneAndUppersIncreasing) {
  uint64_t prev_upper = 0;
  for (size_t i = 1; i < hdr::kNumBuckets; ++i) {
    const uint64_t upper = hdr::BucketUpper(i);
    EXPECT_GT(upper, prev_upper) << "bucket " << i;
    prev_upper = upper;
    // The upper bound of bucket i maps back to bucket i, and the next
    // value maps past it.
    EXPECT_EQ(hdr::BucketIndex(upper), i);
    if (upper < UINT64_MAX) {
      EXPECT_GT(hdr::BucketIndex(upper + 1), i);
    }
  }
}

// --- percentiles vs sorted-sample oracle ----------------------------------

// Exact nearest-rank percentile of a sorted sample.
uint64_t OraclePercentile(const std::vector<uint64_t>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<size_t>(p / 100.0 * n + 0.9999);
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TEST(Histogram, PercentilesMatchSortedOracleWithinBucketResolution) {
  // Log-uniform latencies (the shape op latencies actually have): the
  // histogram's nearest-rank percentile must land in [oracle, oracle*1.0625
  // + 1] for every probed percentile.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> log_ns(std::log(16.0),
                                                std::log(5e7));
  LatencyHistogram hist;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<uint64_t>(std::exp(log_ns(rng)));
    samples.push_back(v);
    hist.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.total, samples.size());
  for (const double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const uint64_t oracle = OraclePercentile(samples, p);
    const uint64_t got = snap.PercentileNs(p);
    EXPECT_GE(got, oracle) << "p=" << p;
    EXPECT_LE(got, oracle + oracle / 16 + 1) << "p=" << p;
  }
  EXPECT_GE(snap.MaxNs(), samples.back());
  EXPECT_LE(snap.MaxNs(), samples.back() + samples.back() / 16 + 1);
}

TEST(Histogram, SnapshotMergeAndDelta) {
  LatencyHistogram hist;
  hist.Record(100);
  hist.Record(200);
  const HistogramSnapshot before = hist.Snapshot();
  hist.Record(400);
  hist.Record(100);
  const HistogramSnapshot after = hist.Snapshot();

  const HistogramSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.counts[hdr::BucketIndex(100)], 1u);
  EXPECT_EQ(delta.counts[hdr::BucketIndex(400)], 1u);

  // before + delta == after, bucket for bucket.
  HistogramSnapshot merged = before;
  merged.Merge(delta);
  EXPECT_EQ(merged.total, after.total);
  EXPECT_EQ(merged.counts, after.counts);

  // Empty snapshots: merge is identity, delta from empty is the snapshot.
  HistogramSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.PercentileNs(50.0), 0u);
  EXPECT_EQ(empty.MaxNs(), 0u);
  merged.Merge(empty);
  EXPECT_EQ(merged.total, after.total);
  EXPECT_EQ(after.DeltaSince(empty).total, after.total);
}

// --- sharded counters under threads (TSan-checked in CI) ------------------

TEST(Counter, FoldsExactlyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.Load(), kThreads * kAddsPerThread);
}

TEST(Gauge, BalancedDeltasNetToZeroAcrossThreads) {
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&gauge] {
      for (int i = 0; i < 20000; ++i) {
        gauge.Add(3);
        gauge.Add(-3);
      }
      gauge.Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(gauge.Load(), kThreads);  // the +1 per thread survives
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + 17);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(hist.Snapshot().total,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- registry snapshots ---------------------------------------------------

TEST(Registry, SnapshotIsolationAndDelta) {
  // An isolated instance (not the singleton) so counts are fully
  // deterministic regardless of what other tests did.
  Registry reg;
  reg.op_count(Engine::kDisk, Op::kLookup).Add(10);
  reg.op_latency(Engine::kDisk, Op::kLookup).Record(500);
  reg.counter(CounterId::kIoPagesRead).Add(7);
  reg.gauge(GaugeId::kEpochPending).Add(3);

  const RegistrySnapshot before = reg.Snapshot();
  EXPECT_EQ(before.op(Engine::kDisk, Op::kLookup).count, 10u);
  EXPECT_EQ(before.counter(CounterId::kIoPagesRead), 7u);
  EXPECT_EQ(before.gauge(GaugeId::kEpochPending), 3);

  reg.op_count(Engine::kDisk, Op::kLookup).Add(5);
  reg.op_latency(Engine::kDisk, Op::kLookup).Record(900);
  reg.counter(CounterId::kIoPagesRead).Add(2);
  reg.gauge(GaugeId::kEpochPending).Add(-1);

  // The earlier snapshot is a value: mutating the registry didn't move it.
  EXPECT_EQ(before.op(Engine::kDisk, Op::kLookup).count, 10u);
  EXPECT_EQ(before.op(Engine::kDisk, Op::kLookup).latency.total, 1u);

  const RegistrySnapshot after = reg.Snapshot();
  const RegistrySnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.op(Engine::kDisk, Op::kLookup).count, 5u);
  EXPECT_EQ(delta.op(Engine::kDisk, Op::kLookup).latency.total, 1u);
  EXPECT_EQ(delta.counter(CounterId::kIoPagesRead), 2u);
  // Gauges are levels: the delta carries the later level, not a diff.
  EXPECT_EQ(delta.gauge(GaugeId::kEpochPending), 2);
  // Untouched cells stay zero.
  EXPECT_EQ(delta.op(Engine::kStatic, Op::kInsert).count, 0u);
  EXPECT_EQ(delta.counter(CounterId::kIoCacheHits), 0u);
}

TEST(Registry, NamesCoverEveryId) {
  for (size_t e = 0; e < kNumEngines; ++e) {
    EXPECT_NE(EngineName(static_cast<Engine>(e))[0], '\0');
  }
  for (size_t o = 0; o < kNumOps; ++o) {
    EXPECT_NE(OpName(static_cast<Op>(o))[0], '\0');
  }
  for (size_t c = 0; c < kNumCounters; ++c) {
    EXPECT_NE(CounterName(static_cast<CounterId>(c))[0], '\0');
  }
  for (size_t g = 0; g < kNumGauges; ++g) {
    EXPECT_NE(GaugeName(static_cast<GaugeId>(g))[0], '\0');
  }
}

// --- instrumentation helpers against the singleton ------------------------

TEST(Instrumentation, ScopedOpCountsEveryCallAndTimesSampled) {
  SetSamplePeriodForTest(1);  // time every op: deterministic histograms
  auto& reg = Registry::Get();
  const uint64_t count_before =
      reg.op_count(Engine::kStatic, Op::kDelete).Load();
  const uint64_t timed_before =
      reg.op_latency(Engine::kStatic, Op::kDelete).Snapshot().total;
  constexpr int kCalls = 100;
  for (int i = 0; i < kCalls; ++i) {
    ScopedOp op(Engine::kStatic, Op::kDelete);
  }
  EXPECT_EQ(reg.op_count(Engine::kStatic, Op::kDelete).Load() - count_before,
            static_cast<uint64_t>(kCalls));
  // Period 1: every call recorded a latency sample.
  EXPECT_EQ(reg.op_latency(Engine::kStatic, Op::kDelete).Snapshot().total -
                timed_before,
            static_cast<uint64_t>(kCalls));
  SetSamplePeriodForTest(64);  // restore the default period
}

TEST(Instrumentation, ScopedDurationCancelSuppressesTheRecord) {
  auto& reg = Registry::Get();
  const uint64_t before = reg.op_count(Engine::kDisk, Op::kCompact).Load();
  {
    ScopedDuration timer(Engine::kDisk, Op::kCompact);
    timer.Cancel();
  }
  EXPECT_EQ(reg.op_count(Engine::kDisk, Op::kCompact).Load(), before);
  {
    ScopedDuration timer(Engine::kDisk, Op::kCompact);
  }
  EXPECT_EQ(reg.op_count(Engine::kDisk, Op::kCompact).Load(), before + 1);
}

// --- phase spans ----------------------------------------------------------

// Busy-wait so span durations are deterministic lower bounds: the loop
// exits only once the clock has passed `ns`, so a span around it measures
// at least that much.
void SpinFor(uint64_t ns) {
  const uint64_t end = NowNs() + ns;
  while (NowNs() < end) {
  }
}

TEST(Phase, NamesCoverEveryPhase) {
  for (size_t p = 0; p < kNumPhases; ++p) {
    EXPECT_NE(PhaseName(static_cast<Phase>(p))[0], '\0');
  }
  EXPECT_STREQ(PhaseName(Phase::kDirectoryDescent), "directory_descent");
  EXPECT_STREQ(PhaseName(Phase::kEpochReclaim), "epoch_reclaim");
}

TEST(Phase, RegistryStorageSnapshotsAndDeltas) {
  Registry reg;
  reg.phase_count(Engine::kDisk, Phase::kPageIo).Add(3);
  reg.phase_latency(Engine::kDisk, Phase::kPageIo).Record(1000);
  const RegistrySnapshot before = reg.Snapshot();
  EXPECT_EQ(before.phase(Engine::kDisk, Phase::kPageIo).count, 3u);
  reg.phase_count(Engine::kDisk, Phase::kPageIo).Add(2);
  reg.phase_latency(Engine::kDisk, Phase::kPageIo).Record(2000);
  const RegistrySnapshot delta = reg.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.phase(Engine::kDisk, Phase::kPageIo).count, 2u);
  EXPECT_EQ(delta.phase(Engine::kDisk, Phase::kPageIo).latency.total, 1u);
  EXPECT_EQ(delta.phase(Engine::kStatic, Phase::kPageIo).count, 0u);
}

TEST(Phase, SpansShareTheScopedOpSampleCountdown) {
  auto& reg = Registry::Get();
  // Flush this thread's countdown to a known state: at period 1 the next
  // op samples and reloads the countdown to 1.
  SetSamplePeriodForTest(1);
  { ScopedOp op(Engine::kStatic, Op::kUpdate); }
  SetSamplePeriodForTest(4);

  const uint64_t phases_before =
      reg.phase_count(Engine::kStatic, Phase::kWindowSearch).Load();
  const uint64_t samples_before =
      reg.op_latency(Engine::kStatic, Op::kUpdate).Snapshot().total;
  for (int i = 0; i < 8; ++i) {
    ScopedOp op(Engine::kStatic, Op::kUpdate);
    ScopedPhase phase(Engine::kStatic, Phase::kWindowSearch);
  }
  // Period 4 over 8 ops: exactly ops 1 and 5 sample — and ONLY their
  // phases record. One shared countdown, no second decision point.
  EXPECT_EQ(reg.op_latency(Engine::kStatic, Op::kUpdate).Snapshot().total -
                samples_before,
            2u);
  EXPECT_EQ(reg.phase_count(Engine::kStatic, Phase::kWindowSearch).Load() -
                phases_before,
            2u);
  SetSamplePeriodForTest(64);
}

TEST(Phase, InertOutsideAnyArmedOperation) {
  auto& reg = Registry::Get();
  SetSamplePeriodForTest(1);
  const uint64_t before =
      reg.phase_count(Engine::kStatic, Phase::kCompact).Load();
  // No enclosing ScopedOp/ScopedDuration: the span must not record, no
  // matter how aggressive the sample period is.
  { ScopedPhase phase(Engine::kStatic, Phase::kCompact); }
  EXPECT_EQ(reg.phase_count(Engine::kStatic, Phase::kCompact).Load(), before);
  SetSamplePeriodForTest(64);
}

TEST(Phase, NestedSpansRecordSelfTimeChildrenExcluded) {
  auto& reg = Registry::Get();
  SetSamplePeriodForTest(1);
  // Static engine never emits compact/epoch_reclaim phases, so these two
  // cells are private to this test even on the singleton.
  const auto outer_before =
      reg.phase_latency(Engine::kStatic, Phase::kCompact).Snapshot();
  const auto child_before =
      reg.phase_latency(Engine::kStatic, Phase::kEpochReclaim).Snapshot();

  constexpr uint64_t kMs = 1'000'000;
  const uint64_t wall_start = NowNs();
  {
    ScopedOp op(Engine::kStatic, Op::kLookup);
    ScopedPhase outer(Engine::kStatic, Phase::kCompact);
    SpinFor(1 * kMs);
    {
      ScopedPhase child(Engine::kStatic, Phase::kEpochReclaim);
      SpinFor(8 * kMs);
    }
    SpinFor(1 * kMs);
  }
  const uint64_t wall_inclusive = NowNs() - wall_start;

  const auto outer_delta =
      reg.phase_latency(Engine::kStatic, Phase::kCompact)
          .Snapshot()
          .DeltaSince(outer_before);
  const auto child_delta =
      reg.phase_latency(Engine::kStatic, Phase::kEpochReclaim)
          .Snapshot()
          .DeltaSince(child_before);
  ASSERT_EQ(outer_delta.total, 1u);
  ASSERT_EQ(child_delta.total, 1u);
  // The child saw its full 8 ms; the outer span's SELF time is ~2 ms.
  // No absolute upper bound is noise-proof (preemption on a loaded
  // runner stretches the 2 ms of spinning arbitrarily), but self =
  // inclusive - child always holds, and the wall-clocked inclusive
  // time measured around the block grows with the same noise: self
  // must stay at least the child's full 8 ms spin below it (1 ms slack
  // for the clock reads outside the span).
  EXPECT_GE(child_delta.PercentileNs(50.0), 8 * kMs);
  EXPECT_GE(outer_delta.PercentileNs(50.0), 2 * kMs);
  EXPECT_LE(outer_delta.PercentileNs(50.0),
            wall_inclusive - 8 * kMs + 1 * kMs);
  SetSamplePeriodForTest(64);
}

TEST(Phase, ScopedDurationAlwaysArmsSpans) {
  auto& reg = Registry::Get();
  SetSamplePeriodForTest(64);  // structural scopes ignore the period
  const uint64_t before =
      reg.phase_count(Engine::kDisk, Phase::kMergeResegment).Load();
  {
    ScopedDuration timer(Engine::kDisk, Op::kCompact);
    ScopedPhase phase(Engine::kDisk, Phase::kMergeResegment);
  }
  EXPECT_EQ(
      reg.phase_count(Engine::kDisk, Phase::kMergeResegment).Load() - before,
      1u);
}

// --- hardware counters ----------------------------------------------------

TEST(PerfCounters, RegionDegradesGracefullyEverywhere) {
  // Must never crash, whatever the kernel/container allows.
  PerfRegion region;
  EXPECT_FALSE(region.status().empty());
  region.Start();
  const PerfSample sample = region.Stop();
  EXPECT_FALSE(sample.status.empty());
  if (region.available()) {
    // Counters that scheduled report usable windows and non-negative
    // values; ok mirrors "anything counted".
    if (sample.ok) {
      EXPECT_GT(sample.time_running_ns, 0.0);
      EXPECT_GE(sample.time_enabled_ns, sample.time_running_ns);
    }
  } else {
    EXPECT_FALSE(sample.ok);
    // The status names the failure, never a bare error code.
    EXPECT_NE(sample.status.find("unavailable"), std::string::npos)
        << sample.status;
  }
}

TEST(PerfCounters, StopWithoutStartIsNotMeasured) {
  PerfRegion region;
  const PerfSample sample = region.Stop();
  EXPECT_FALSE(sample.ok);
  if (region.available()) {
    EXPECT_EQ(sample.status, "not measured");
  }
}

// --- engine Stats() snapshots ---------------------------------------------

std::vector<int64_t> TestKeys(size_t n) {
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<int64_t>(i) * 7 + (i % 3));
  }
  return keys;
}

TEST(StructuralStats, EveryEngineReportsCoreFields) {
  const auto keys = TestKeys(20000);

  const auto static_tree =
      fitree::StaticFitingTree<int64_t>::Create(keys, 64.0);
  const StructuralStats ss = static_tree->Stats();
  EXPECT_EQ(ss.engine, "static");
  EXPECT_EQ(ss.Get("keys"), static_cast<double>(keys.size()));
  EXPECT_GT(ss.Get("segments"), 0.0);
  EXPECT_EQ(ss.Get("error"), 64.0);
  EXPECT_GT(ss.Get("index_bytes"), 0.0);
  EXPECT_GE(ss.Get("segment_len_max"), ss.Get("segment_len_mean"));
  EXPECT_GE(ss.Get("segment_len_mean"), ss.Get("segment_len_min"));

  fitree::FitingTreeConfig config;
  config.error = 64.0;
  const auto buffered = fitree::FitingTree<int64_t>::Create(keys, config);
  const StructuralStats bs = buffered->Stats();
  EXPECT_EQ(bs.engine, "buffered");
  EXPECT_EQ(bs.Get("keys"), static_cast<double>(keys.size()));
  EXPECT_TRUE(bs.Has("buffer_capacity"));
  EXPECT_TRUE(bs.Has("buffered_entries"));
  EXPECT_TRUE(bs.Has("merges"));

  fitree::ConcurrentFitingTreeConfig cconfig;
  cconfig.error = 64.0;
  const auto concurrent =
      fitree::ConcurrentFitingTree<int64_t>::Create(keys, cconfig);
  concurrent->Insert(-100);
  const StructuralStats cs = concurrent->Stats();
  EXPECT_EQ(cs.engine, "concurrent");
  EXPECT_EQ(cs.Get("keys"), static_cast<double>(keys.size() + 1));
  EXPECT_GE(cs.Get("buffered_entries"), 1.0);
  EXPECT_TRUE(cs.Has("epoch_pending"));
  EXPECT_TRUE(cs.Has("merge_queue"));
}

TEST(StructuralStats, DiskEngineReportsIoAndCompaction) {
  const auto keys = TestKeys(20000);
  const auto base = fitree::StaticFitingTree<int64_t>::Create(keys, 64.0);
  const std::string path = ::testing::TempDir() + "/telemetry_stats.fit";
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *base,
                                              fitree::storage::SegmentFileOptions{}));
  typename fitree::storage::DiskFitingTree<int64_t>::Options options;
  options.cache_pages = 16;
  auto disk = fitree::storage::DiskFitingTree<int64_t>::Open(path, options);
  ASSERT_NE(disk, nullptr);

  for (int i = 0; i < 50; ++i) disk->Insert(-1000 - i, /*value=*/1);
  ASSERT_TRUE(disk->Compact());
  EXPECT_GT(disk->LastCompactNs(), 0u);
  EXPECT_GT(disk->CompactPagesRewritten(), 0u);
  // Compact reopens the rewritten file with a fresh buffer pool; touch it
  // so the io_* fields below are nonzero.
  EXPECT_TRUE(disk->Contains(keys[0]));

  const StructuralStats ds = disk->Stats();
  EXPECT_EQ(ds.engine, "disk");
  EXPECT_EQ(ds.Get("keys"), static_cast<double>(keys.size() + 50));
  EXPECT_EQ(ds.Get("delta_entries"), 0.0);  // compaction folded the overlay
  EXPECT_EQ(ds.Get("compactions"), 1.0);
  EXPECT_GT(ds.Get("last_compact_ns"), 0.0);
  EXPECT_GT(ds.Get("compact_pages_rewritten"), 0.0);
  EXPECT_GT(ds.Get("leaf_pages"), 0.0);
  EXPECT_GT(ds.Get("file_bytes"), 0.0);
  EXPECT_EQ(ds.Get("io_error"), 0.0);
  // Page reads flowed through the pool: hits + misses > 0.
  EXPECT_GT(ds.Get("io_hits") + ds.Get("io_misses"), 0.0);
  std::remove(path.c_str());
}

// --- driver-count exactness (the acceptance criterion, unit-sized) --------

TEST(Instrumentation, ConcurrentOpCountsMatchIssuedOps) {
  const auto keys = TestKeys(20000);
  fitree::ConcurrentFitingTreeConfig config;
  config.error = 64.0;
  auto tree = fitree::ConcurrentFitingTree<int64_t>::Create(keys, config);

  auto& reg = Registry::Get();
  const auto load = [&](Op o) {
    return reg.op_count(Engine::kConcurrent, o).Load();
  };
  const uint64_t lookups0 = load(Op::kLookup);
  const uint64_t inserts0 = load(Op::kInsert);
  const uint64_t scans0 = load(Op::kScan);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tree, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t k = static_cast<int64_t>(t) * 100000 + i;
        tree->Insert(k);          // 1 insert
        (void)tree->Contains(k);  // 1 lookup (Contains routes via Lookup)
        tree->ScanRange(k, k + 10, [](int64_t) {});  // 1 scan
      }
    });
  }
  for (auto& w : workers) w.join();
  tree->QuiesceMerges();

  constexpr uint64_t kIssued =
      static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(load(Op::kLookup) - lookups0, kIssued);
  EXPECT_EQ(load(Op::kInsert) - inserts0, kIssued);
  EXPECT_EQ(load(Op::kScan) - scans0, kIssued);
}

}  // namespace
