// Tests for the benchmark harness (bench/harness/): registry
// registration/filtering, repetition collection, stats aggregation on
// known samples, JSON round-trips of result records, the shared sink, the
// dataset memo cache, and tools/bench_diff.py's threshold logic driven
// through real fixture files.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness/json_writer.h"
#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "bench/harness/stats.h"
#include "common/sink.h"

namespace fitree::bench {
namespace {

// --- registry -------------------------------------------------------------

void DummyA(Runner&) {}
void DummyB(Runner&) {}

TEST(Registry, RegistersFiltersAndSorts) {
  Registry registry;  // a private instance: the singleton belongs to fitree_bench
  registry.Register({"zeta_lookup", "z", &DummyA});
  registry.Register({"alpha_insert", "a", &DummyB});
  registry.Register({"alpha_lookup", "a2", &DummyA});

  const auto all = registry.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "alpha_insert");
  EXPECT_EQ(all[1]->name, "alpha_lookup");
  EXPECT_EQ(all[2]->name, "zeta_lookup");

  EXPECT_EQ(registry.Match("").size(), 3u);           // empty matches all
  EXPECT_EQ(registry.Match("lookup").size(), 2u);     // substring
  EXPECT_EQ(registry.Match("alpha").size(), 2u);
  EXPECT_EQ(registry.Match("zeta,insert").size(), 2u);  // comma = OR
  EXPECT_TRUE(registry.Match("nomatch").empty());

  const auto matched = registry.Match("lookup");
  EXPECT_EQ(matched[0]->name, "alpha_lookup");  // matches stay sorted
  EXPECT_EQ(matched[1]->name, "zeta_lookup");
}

TEST(Registry, GlobalMacroRegistration) {
  // The production experiments register into the singleton at static-init
  // time; this test binary links none of them, so the singleton only holds
  // what tests put there. Register one and find it.
  const bool registered =
      Registry::Instance().Register({"test_probe", "probe", &DummyA});
  EXPECT_TRUE(registered);
  EXPECT_FALSE(Registry::Instance().Match("test_probe").empty());
}

// --- runner repetitions ---------------------------------------------------

TEST(Runner, CollectsRepsWithWarmup) {
  Runner runner("exp", 3);
  int calls = 0;
  const Stats stats = runner.CollectReps([&] {
    ++calls;
    return static_cast<double>(calls);
  });
  EXPECT_EQ(calls, 4);  // 1 warmup + 3 measured
  EXPECT_EQ(stats.reps, 3);
  EXPECT_EQ(stats.min, 2.0);  // warmup sample (1.0) is discarded
  EXPECT_EQ(stats.max, 4.0);
}

TEST(Runner, NoWarmupWhenSingleRepOrDisabled) {
  Runner smoke("exp", 1);
  int calls = 0;
  (void)smoke.CollectReps([&] { ++calls; return 1.0; });
  EXPECT_EQ(calls, 1);  // --reps=1: no warmup, fast CI smoke

  Runner mutating("exp", 2);
  calls = 0;
  (void)mutating.CollectReps([&] { ++calls; return 1.0; }, /*warmup=*/false);
  EXPECT_EQ(calls, 2);
}

TEST(Runner, ReportAccumulatesRecords) {
  Runner runner("exp", 1);
  runner.Report({{"k", "v"}}, Stats::From({1.0}), {{"m", 2.0}});
  runner.Report({{"k", "w"}}, Stats{});
  ASSERT_EQ(runner.records().size(), 2u);
  EXPECT_EQ(runner.records()[0].experiment, "exp");
  EXPECT_TRUE(runner.records()[0].ns_per_op.valid());
  EXPECT_FALSE(runner.records()[1].ns_per_op.valid());
}

// --- stats ----------------------------------------------------------------

TEST(Stats, KnownSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  const Stats s = Stats::From(samples);
  EXPECT_EQ(s.reps, 100);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);  // nearest rank: ceil(0.5*100) = 50th
  EXPECT_DOUBLE_EQ(s.p99, 99.0);  // ceil(0.99*100) = 99th
  EXPECT_NEAR(s.stddev, 29.011, 0.01);
}

TEST(Stats, SmallRepCounts) {
  const Stats s3 = Stats::From({30.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(s3.p50, 20.0);  // the median rep
  EXPECT_DOUBLE_EQ(s3.p99, 30.0);  // the slowest rep
  const Stats s1 = Stats::From({42.0});
  EXPECT_DOUBLE_EQ(s1.p50, 42.0);
  EXPECT_DOUBLE_EQ(s1.stddev, 0.0);
  const Stats empty = Stats::From({});
  EXPECT_FALSE(empty.valid());
}

// --- JSON -----------------------------------------------------------------

TEST(Json, ParsePrimitivesAndStructure) {
  auto v = Json::Parse(R"({"a": [1, 2.5, -3e2], "b": "x\ny", "c": true,
                           "d": null})");
  ASSERT_TRUE(v.has_value());
  const Json* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(a->AsArray()[2].AsNumber(), -300.0);
  EXPECT_EQ(v->Find("b")->AsString(), "x\ny");
  EXPECT_TRUE(v->Find("c")->AsBool());
  EXPECT_TRUE(v->Find("d")->is_null());

  EXPECT_FALSE(Json::Parse("{").has_value());
  EXPECT_FALSE(Json::Parse("[1,]").has_value());
  EXPECT_FALSE(Json::Parse("1 trailing").has_value());
}

TEST(Json, DumpParsesBackIncludingAwkwardDoubles) {
  Json obj = Json::Object();
  obj.Set("tiny", Json(1.0 / 3.0));
  obj.Set("big", Json(1.23456789e18));
  obj.Set("text", Json(std::string("quote\" slash\\ tab\t")));
  const auto parsed = Json::Parse(obj.Dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("tiny")->AsNumber(), 1.0 / 3.0);  // bit-exact
  EXPECT_EQ(parsed->Find("big")->AsNumber(), 1.23456789e18);
  EXPECT_EQ(parsed->Find("text")->AsString(), "quote\" slash\\ tab\t");
}

TEST(Json, ResultRecordRoundTrip) {
  ResultRecord record;
  record.experiment = "fig6_lookup";
  record.params = {{"dataset", "Weblogs"}, {"method", "FITing-Tree"},
                   {"param", "e=16"}};
  record.ns_per_op = Stats::From({181.25, 179.5, 190.75});
  record.metrics = {{"index_size_MB", 12.3456}, {"segments", 42.0}};

  const std::string text = ResultRecordToJson(record).Dump(2);
  const auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  const auto back = ResultRecordFromJson(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, record);
}

TEST(Json, MetricsOnlyRecordRoundTrip) {
  ResultRecord record;
  record.experiment = "disk";
  record.params = {{"op", "file"}};
  record.metrics = {{"file_MB", 3.25}};
  const auto parsed = Json::Parse(ResultRecordToJson(record).Dump(0));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("ns_per_op"), nullptr);  // omitted when invalid
  const auto back = ResultRecordFromJson(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, record);
}

// --- shared sink ----------------------------------------------------------

TEST(Sink, SingleSharedDefinition) {
  const uint64_t before = SinkTotal();
  SinkValue(7);
  SinkValue(5);
  EXPECT_EQ(SinkTotal(), before + 12);  // one accumulator, not one per TU
}

// --- memo cache -----------------------------------------------------------

TEST(Memo, ReturnsSameVectorForSameKey) {
  int builds = 0;
  const auto make = [&] {
    ++builds;
    return std::vector<int64_t>{1, 2, 3};
  };
  const auto a = MemoKeys("test/memo/a", make);
  const auto b = MemoKeys("test/memo/a", make);
  const auto c = MemoKeys("test/memo/b", make);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(builds, 2);
}

// --- bench_diff.py --------------------------------------------------------

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::system("python3 --version > /dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
  }

  // Writes a results document with one record at `ns` ns/op.
  std::string WriteDoc(const std::string& name, double ns) {
    ResultRecord record;
    record.experiment = "exp";
    record.params = {{"k", "v"}};
    record.ns_per_op = Stats::From({ns, ns * 1.01, ns * 1.02});
    Json env = Json::Object();
    env.Set("git_sha", Json("test"));
    const Json doc = MakeResultsDocument(env, 3, {record});
    const std::string path =
        ::testing::TempDir() + "fitree_bench_diff_" + name + ".json";
    std::ofstream out(path);
    out << doc.Dump(2);
    return path;
  }

  // Runs bench_diff.py and returns its exit status.
  int RunDiff(const std::string& baseline, const std::string& current,
              const std::string& extra_flags) {
    const std::string cmd = "python3 '" FITREE_SOURCE_DIR
                            "/tools/bench_diff.py' '" +
                            baseline + "' '" + current + "' " + extra_flags +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

TEST_F(BenchDiffTest, PassesWithinThreshold) {
  const auto baseline = WriteDoc("base1", 100.0);
  const auto current = WriteDoc("cur1", 120.0);  // 1.2x < 1.5x
  EXPECT_EQ(RunDiff(baseline, current, "--threshold 1.5"), 0);
}

TEST_F(BenchDiffTest, FailsPastThreshold) {
  const auto baseline = WriteDoc("base2", 100.0);
  const auto current = WriteDoc("cur2", 200.0);  // 2.0x > 1.5x
  EXPECT_EQ(RunDiff(baseline, current, "--threshold 1.5"), 1);
}

TEST_F(BenchDiffTest, ImprovementNeverFails) {
  const auto baseline = WriteDoc("base3", 200.0);
  const auto current = WriteDoc("cur3", 50.0);  // 4x faster
  EXPECT_EQ(RunDiff(baseline, current, "--threshold 1.5"), 0);
}

TEST_F(BenchDiffTest, WarnOnlySwallowsRegression) {
  const auto baseline = WriteDoc("base4", 100.0);
  const auto current = WriteDoc("cur4", 500.0);
  EXPECT_EQ(RunDiff(baseline, current, "--threshold 1.5 --warn-only"), 0);
}

TEST_F(BenchDiffTest, ComparesChosenMetric) {
  // p99 regresses 3x while min stays flat: the default (min) passes, the
  // p99 gate fails.
  ResultRecord base_record, cur_record;
  base_record.experiment = cur_record.experiment = "exp";
  base_record.params = cur_record.params = {{"k", "v"}};
  base_record.ns_per_op = Stats::From({100.0, 101.0, 102.0});
  cur_record.ns_per_op = Stats::From({100.0, 101.0, 306.0});
  Json env = Json::Object();
  const std::string base_path = ::testing::TempDir() + "fitree_diff_m_a.json";
  const std::string cur_path = ::testing::TempDir() + "fitree_diff_m_b.json";
  std::ofstream(base_path) << MakeResultsDocument(env, 3, {base_record}).Dump(2);
  std::ofstream(cur_path) << MakeResultsDocument(env, 3, {cur_record}).Dump(2);
  EXPECT_EQ(RunDiff(base_path, cur_path, "--threshold 1.5 --metric min"), 0);
  EXPECT_EQ(RunDiff(base_path, cur_path, "--threshold 1.5 --metric p99"), 1);
}

TEST_F(BenchDiffTest, MalformedInputExitsTwo) {
  const std::string path = ::testing::TempDir() + "fitree_diff_bad.json";
  std::ofstream(path) << "not json";
  const auto good = WriteDoc("base5", 100.0);
  EXPECT_EQ(RunDiff(path, good, ""), 2);
}

TEST_F(BenchDiffTest, UnknownRecordFieldsDoNotBreakPairing) {
  // A current file whose record carries exporter additions bench_diff has
  // never heard of (perf block, unknown arrays). If pairing ignored the
  // extras the 4x regression is detected (exit 1); if the extras leaked
  // into the pairing key the records would not match and the gate would
  // silently pass.
  const auto baseline = WriteDoc("base6", 100.0);
  const std::string current =
      ::testing::TempDir() + "fitree_diff_extra.json";
  std::ofstream(current) << R"({
    "schema_version": 1,
    "results": [{
      "experiment": "exp",
      "params": {"k": "v"},
      "ns_per_op": {"reps": 3, "min": 400.0, "max": 408.0, "mean": 404.0,
                    "p50": 404.0, "p99": 408.0, "stddev": 4.0},
      "metrics": {},
      "perf": {"status": "ok", "counters": {"cycles": 1e9},
               "derived": {"ipc": 1.5}},
      "future_unknown_field": [1, 2, 3]
    }]
  })";
  EXPECT_EQ(RunDiff(baseline, current, "--threshold 1.5"), 1);
}

// --- perf capture through Runner ------------------------------------------

TEST(Runner, PerfSampleAttachesToNextReportOnly) {
  Runner runner("exp", 1);
  const Stats stats = runner.CollectReps([] { return 10.0; });
  runner.Report({{"k", "v"}}, stats);
  runner.Report({{"k", "analytic"}}, Stats{});  // no measurement ran
  ASSERT_EQ(runner.records().size(), 2u);
  // Whatever the kernel allowed, the measured record carries the capture's
  // status and an ops estimate (wall / ns-per-op is always > 0 here); the
  // analytic record keeps the default "not measured" sample.
  EXPECT_NE(runner.records()[0].perf.status, "not measured");
  EXPECT_FALSE(runner.records()[0].perf.status.empty());
  EXPECT_GT(runner.records()[0].perf_ops, 0.0);
  EXPECT_EQ(runner.records()[1].perf.status, "not measured");
  EXPECT_EQ(runner.records()[1].perf_ops, 0.0);
}

TEST(Json, EveryRecordExportsAPerfBlockWithStatus) {
  ResultRecord record;
  record.experiment = "exp";
  const Json j = ResultRecordToJson(record);
  const Json* perf = j.Find("perf");
  ASSERT_NE(perf, nullptr);
  const Json* status = perf->Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->AsString(), "not measured");

  // A live sample exports counters and derived rates; fields that never
  // counted (negative) stay absent rather than exporting as zero.
  record.perf.ok = true;
  record.perf.status = "ok";
  record.perf.cycles = 3e9;
  record.perf.instructions = 6e9;
  record.perf.llc_misses = -1.0;  // never scheduled
  record.perf_ops = 1e6;
  const Json live = ResultRecordToJson(record);
  const Json* live_perf = live.Find("perf");
  ASSERT_NE(live_perf, nullptr);
  const Json* counters = live_perf->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->Find("cycles"), nullptr);
  EXPECT_EQ(counters->Find("llc_load_misses"), nullptr);
  const Json* derived = live_perf->Find("derived");
  ASSERT_NE(derived, nullptr);
  ASSERT_NE(derived->Find("ipc"), nullptr);
  EXPECT_DOUBLE_EQ(derived->Find("ipc")->AsNumber(), 2.0);
  ASSERT_NE(derived->Find("cycles_per_op"), nullptr);
  EXPECT_DOUBLE_EQ(derived->Find("cycles_per_op")->AsNumber(), 3000.0);
  EXPECT_EQ(derived->Find("llc_load_misses_per_op"), nullptr);

  // And the round-trip importer ignores the block entirely: perf is
  // telemetry, not identity (bench_diff pairing must stay stable).
  const auto parsed = ResultRecordFromJson(live);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->perf.status, "not measured");
}

// --- stats_dump.py ---------------------------------------------------------

class StatsDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::system("python3 --version > /dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
  }

  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "fitree_stats_dump_" + name;
  }

  // Full results document as fitree_bench writes it (schema_version,
  // telemetry section included), with one record whose hardware counters
  // counted: 3e9 cycles over 1e6 ops.
  std::string WriteDoc(const std::string& name) {
    ResultRecord record;
    record.experiment = "micro_lookup";
    record.params = {{"engine", "static"}};
    record.ns_per_op = Stats::From({100.0, 101.0, 102.0});
    record.perf.ok = true;
    record.perf.status = "ok";
    record.perf.cycles = 3e9;
    record.perf.instructions = 6e9;
    record.perf_ops = 1e6;
    Json env = Json::Object();
    const Json doc = MakeResultsDocument(env, 3, {record});
    const std::string path = TempPath(name + ".json");
    std::ofstream(path) << doc.Dump(2);
    return path;
  }

  std::string WriteText(const std::string& name, const std::string& text) {
    const std::string path = TempPath(name);
    std::ofstream(path) << text;
    return path;
  }

  // Runs tools/stats_dump.py with `args`; its stdout lands in *out.
  int RunTool(const std::string& args, std::string* out = nullptr) {
    const std::string stdout_path = TempPath("stdout.txt");
    const std::string cmd = "python3 '" FITREE_SOURCE_DIR
                            "/tools/stats_dump.py' " + args + " > '" +
                            stdout_path + "' 2>/dev/null";
    const int status = std::system(cmd.c_str());
    if (out != nullptr) *out = ReadFile(stdout_path);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(StatsDumpTest, RendersARealDocumentWithThePmuTable) {
  const auto doc = WriteDoc("ok");
  std::string out;
  ASSERT_EQ(RunTool("'" + doc + "'", &out), 0);
  EXPECT_NE(out.find("per-(engine, op) latency grid"), std::string::npos);
  EXPECT_NE(out.find("hardware counters per result record"),
            std::string::npos);
  EXPECT_NE(out.find("1 record(s) with status: ok"), std::string::npos);
  // The record's row: IPC 6e9/3e9 and cycles/op 3e9/1e6.
  EXPECT_NE(out.find("micro_lookup"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);
  EXPECT_NE(out.find("3,000.00"), std::string::npos);
}

TEST_F(StatsDumpTest, WritesFoldedStacks) {
  // One known phase cell: 4 sampled spans at a mean self time of 250.5 ns
  // fold to one two-frame stack weighing 4 x 250.5 = 1002 ns.
  const auto doc = WriteText("one_phase.json", R"({
      "schema_version": 1, "results": [],
      "telemetry": {"sample_period": 64, "ops": [],
        "phases": [{"engine": "disk", "phase": "page_io", "samples": 4,
                    "p50_ns": 240, "p95_ns": 260, "p99_ns": 260,
                    "max_ns": 260, "mean_ns": 250.5}],
        "counters": {}, "gauges": {}}})");
  const std::string folded = TempPath("stacks.folded");
  std::remove(folded.c_str());
  ASSERT_EQ(RunTool("'" + doc + "' --folded '" + folded + "'"), 0);
  EXPECT_EQ(ReadFile(folded), "disk;page_io 1002\n");
}

TEST_F(StatsDumpTest, SchemaMismatchExitsTwo) {
  const auto wrong = WriteText("wrong_schema.json",
                               R"({"schema_version": 99, "results": [],
                                   "telemetry": {"ops": []}})");
  EXPECT_EQ(RunTool("'" + wrong + "'"), 2);

  const auto bad = WriteText("bad.json", "not json");
  EXPECT_EQ(RunTool("'" + bad + "'"), 2);

  const auto no_telem = WriteText("no_telem.json",
                                  R"({"schema_version": 1, "results": []})");
  EXPECT_EQ(RunTool("'" + no_telem + "'"), 2);
}

TEST_F(StatsDumpTest, DeltaMode) {
  const auto before = WriteDoc("delta_a");
  const auto after = WriteDoc("delta_b");
  EXPECT_EQ(RunTool("--delta '" + before + "' '" + after + "'"), 0);
  // Malformed inputs keep the schema-error contract in delta mode too.
  const auto bad = WriteText("delta_bad.json", "{}");
  EXPECT_EQ(RunTool("--delta '" + bad + "' '" + after + "'"), 2);
}

}  // namespace
}  // namespace fitree::bench
