#include "bench/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <list>
#include <map>
#include <sstream>
#include <thread>

#include "common/table_printer.h"
#include "telemetry/perf_counters.h"
#include "telemetry/registry.h"

extern "C" char** environ;

namespace fitree::bench {

namespace {

// One process-wide counter group: perf_event_open per measurement window
// would dominate short cells, and inherit=1 means counters opened here
// follow into every worker thread the experiments spawn later.
telemetry::PerfRegion& GlobalPerfRegion() {
  static telemetry::PerfRegion region;
  return region;
}

}  // namespace

void PerfCaptureStart() { GlobalPerfRegion().Start(); }

telemetry::PerfSample PerfCaptureStop() { return GlobalPerfRegion().Stop(); }

bool ResultRecord::operator==(const ResultRecord& other) const {
  if (experiment != other.experiment || params != other.params ||
      ns_per_op.reps != other.ns_per_op.reps ||
      metrics != other.metrics) {
    return false;
  }
  return ns_per_op.min == other.ns_per_op.min &&
         ns_per_op.max == other.ns_per_op.max &&
         ns_per_op.mean == other.ns_per_op.mean &&
         ns_per_op.p50 == other.ns_per_op.p50 &&
         ns_per_op.p99 == other.ns_per_op.p99 &&
         ns_per_op.stddev == other.ns_per_op.stddev;
}

std::string FmtMetric(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return std::string(buf);
}

// --- table rendering ------------------------------------------------------

namespace {

// Ordered union of keys across records, preserving first-seen order.
template <typename Pairs>
std::vector<std::string> KeyUnion(const std::vector<ResultRecord>& records,
                                  Pairs ResultRecord::* field) {
  std::vector<std::string> keys;
  for (const ResultRecord& r : records) {
    for (const auto& [k, v] : r.*field) {
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
  }
  return keys;
}

template <typename Pairs>
const typename Pairs::value_type::second_type* FindKey(
    const Pairs& pairs, const std::string& key) {
  for (const auto& [k, v] : pairs) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

void Runner::RenderTable(std::ostream& os) const {
  if (records_.empty()) {
    os << "(no records)\n";
    return;
  }
  const auto param_keys = KeyUnion(records_, &ResultRecord::params);
  const auto metric_keys = KeyUnion(records_, &ResultRecord::metrics);
  const bool timed = std::any_of(
      records_.begin(), records_.end(),
      [](const ResultRecord& r) { return r.ns_per_op.valid(); });

  std::vector<std::string> columns = param_keys;
  if (timed) {
    columns.insert(columns.end(),
                   {"ns_op_p50", "ns_op_min", "ns_op_mean", "ns_op_p99"});
  }
  columns.insert(columns.end(), metric_keys.begin(), metric_keys.end());

  TablePrinter table(columns);
  for (const ResultRecord& r : records_) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const auto& key : param_keys) {
      const std::string* v = FindKey(r.params, key);
      row.push_back(v != nullptr ? *v : "-");
    }
    if (timed) {
      if (r.ns_per_op.valid()) {
        row.push_back(TablePrinter::Fmt(r.ns_per_op.p50, 1));
        row.push_back(TablePrinter::Fmt(r.ns_per_op.min, 1));
        row.push_back(TablePrinter::Fmt(r.ns_per_op.mean, 1));
        row.push_back(TablePrinter::Fmt(r.ns_per_op.p99, 1));
      } else {
        row.insert(row.end(), 4, "-");
      }
    }
    for (const auto& key : metric_keys) {
      const double* v = FindKey(r.metrics, key);
      row.push_back(v != nullptr ? FmtMetric(*v) : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

// --- measurement loops ----------------------------------------------------

double TimedLoopNsPerOpParallel(size_t ops, int threads,
                                const std::function<uint64_t(size_t)>& body) {
  if (threads <= 1) {
    return TimedLoopNsPerOp(ops, [&](size_t i) { return body(i); });
  }
  const size_t per_thread = ops / static_cast<size_t>(threads);
  if (per_thread == 0) return 0.0;
  // Ready/go barrier: thread spawn cost (~100us each, serialized) must not
  // be charged to the measured window.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t sink = 0;
      const size_t begin = static_cast<size_t>(t) * per_thread;
      for (size_t i = begin; i < begin + per_thread; ++i) {
        sink += body(i);
      }
      SinkValue(sink);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Timer timer;
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double ns = static_cast<double>(timer.ElapsedNs());
  return ns / static_cast<double>(per_thread);
}

// --- dataset / workload memoization ---------------------------------------

namespace {

class MemoCache {
 public:
  std::shared_ptr<const std::vector<int64_t>> Get(
      const std::string& key,
      const std::function<std::vector<int64_t>()>& make) {
    if (auto it = entries_.find(key); it != entries_.end()) {
      return it->second;
    }
    auto value =
        std::make_shared<const std::vector<int64_t>>(make());
    const size_t bytes = value->size() * sizeof(int64_t);
    const size_t limit = static_cast<size_t>(
        GetEnvInt64("FITREE_BENCH_MEMO_BYTES", int64_t{1} << 30));
    // Evict least-recently-inserted entries first; holders of evicted
    // vectors keep them alive through their own shared_ptr.
    while (!insertion_order_.empty() && total_bytes_ + bytes > limit) {
      const std::string& victim = insertion_order_.front();
      if (auto it = entries_.find(victim); it != entries_.end()) {
        total_bytes_ -= it->second->size() * sizeof(int64_t);
        entries_.erase(it);
      }
      insertion_order_.pop_front();
    }
    entries_.emplace(key, value);
    insertion_order_.push_back(key);
    total_bytes_ += bytes;
    return value;
  }

 private:
  std::map<std::string, std::shared_ptr<const std::vector<int64_t>>> entries_;
  std::list<std::string> insertion_order_;
  size_t total_bytes_ = 0;
};

MemoCache& GlobalMemoCache() {
  static MemoCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const std::vector<int64_t>> MemoKeys(
    const std::string& key,
    const std::function<std::vector<int64_t>()>& make) {
  return GlobalMemoCache().Get(key, make);
}

std::shared_ptr<const std::vector<int64_t>> MemoProbes(
    const std::string& dataset_key, const std::vector<int64_t>& keys,
    size_t count, workloads::Access access, double absent_fraction,
    uint64_t seed) {
  std::ostringstream id;
  // Max-precision fraction: two distinct fractions must never collide to
  // one memo key (default ostream precision would fold them at 6 digits).
  id << "probes/" << dataset_key << '/' << count << '/'
     << (access == workloads::Access::kUniform ? "uniform" : "zipfian") << '/'
     << std::setprecision(17) << absent_fraction << '/' << seed;
  return MemoKeys(id.str(), [&] {
    return workloads::MakeLookupProbes<int64_t>(keys, count, access,
                                                absent_fraction, seed);
  });
}

std::shared_ptr<const std::vector<int64_t>> MemoInserts(
    const std::string& dataset_key, const std::vector<int64_t>& keys,
    size_t count, uint64_t seed) {
  std::ostringstream id;
  id << "inserts/" << dataset_key << '/' << count << '/' << seed;
  return MemoKeys(id.str(), [&] {
    return workloads::MakeInserts<int64_t>(keys, count, seed);
  });
}

// --- JSON schema ----------------------------------------------------------

Json StatsToJson(const Stats& stats) {
  Json j = Json::Object();
  j.Set("reps", Json(stats.reps));
  j.Set("min", Json(stats.min));
  j.Set("max", Json(stats.max));
  j.Set("mean", Json(stats.mean));
  j.Set("p50", Json(stats.p50));
  j.Set("p99", Json(stats.p99));
  j.Set("stddev", Json(stats.stddev));
  return j;
}

namespace {

// The "perf" member every exported record carries: the status string is
// always present ("ok", "not measured", or "unavailable: ..."),
// counters/derived only when something was counted.
// Events that never scheduled export as absent, not as 0 — a 0 would read
// as "this code causes no misses", which is a different claim.
Json PerfSampleToJson(const telemetry::PerfSample& perf, double ops) {
  Json j = Json::Object();
  j.Set("status", Json(perf.status));
  if (!perf.ok) return j;
  j.Set("time_enabled_ns", Json(perf.time_enabled_ns));
  j.Set("time_running_ns", Json(perf.time_running_ns));

  const std::pair<const char*, double> counters[] = {
      {"cycles", perf.cycles},
      {"instructions", perf.instructions},
      {"llc_load_misses", perf.llc_misses},
      {"branch_misses", perf.branch_misses},
      {"dtlb_load_misses", perf.dtlb_misses},
      {"task_clock_ns", perf.task_clock_ns},
  };
  Json counter_obj = Json::Object();
  for (const auto& [name, value] : counters) {
    if (value >= 0) counter_obj.Set(name, Json(value));
  }
  j.Set("counters", std::move(counter_obj));

  Json derived = Json::Object();
  if (perf.cycles > 0 && perf.instructions >= 0) {
    derived.Set("ipc", Json(perf.instructions / perf.cycles));
  }
  if (ops > 0) {
    j.Set("estimated_ops", Json(ops));
    const std::pair<const char*, double> rates[] = {
        {"cycles_per_op", perf.cycles},
        {"instructions_per_op", perf.instructions},
        {"llc_load_misses_per_op", perf.llc_misses},
        {"branch_misses_per_op", perf.branch_misses},
        {"dtlb_load_misses_per_op", perf.dtlb_misses},
    };
    for (const auto& [name, value] : rates) {
      if (value >= 0) derived.Set(name, Json(value / ops));
    }
  }
  j.Set("derived", std::move(derived));
  return j;
}

}  // namespace

Json ResultRecordToJson(const ResultRecord& record) {
  Json j = Json::Object();
  j.Set("experiment", Json(record.experiment));
  Json params = Json::Object();
  for (const auto& [k, v] : record.params) params.Set(k, Json(v));
  j.Set("params", std::move(params));
  if (record.ns_per_op.valid()) {
    j.Set("ns_per_op", StatsToJson(record.ns_per_op));
  }
  Json metrics = Json::Object();
  for (const auto& [k, v] : record.metrics) metrics.Set(k, Json(v));
  j.Set("metrics", std::move(metrics));
  // PMU block (tentpole): ResultRecordFromJson deliberately skips it —
  // baseline comparison pairs on params + stats + metrics only, so adding
  // or renaming perf fields can never break the bench_diff CI gate.
  j.Set("perf", PerfSampleToJson(record.perf, record.perf_ops));
  return j;
}

std::optional<ResultRecord> ResultRecordFromJson(const Json& json) {
  if (!json.is_object()) return std::nullopt;
  ResultRecord record;
  const Json* experiment = json.Find("experiment");
  if (experiment == nullptr || experiment->type() != Json::Type::kString) {
    return std::nullopt;
  }
  record.experiment = experiment->AsString();
  if (const Json* params = json.Find("params");
      params != nullptr && params->is_object()) {
    for (const auto& [k, v] : params->AsObject()) {
      if (v.type() != Json::Type::kString) return std::nullopt;
      record.params.emplace_back(k, v.AsString());
    }
  }
  if (const Json* stats = json.Find("ns_per_op");
      stats != nullptr && stats->is_object()) {
    const auto number = [&](const char* key) {
      const Json* v = stats->Find(key);
      return v != nullptr && v->type() == Json::Type::kNumber ? v->AsNumber()
                                                              : 0.0;
    };
    record.ns_per_op.reps = static_cast<int>(number("reps"));
    record.ns_per_op.min = number("min");
    record.ns_per_op.max = number("max");
    record.ns_per_op.mean = number("mean");
    record.ns_per_op.p50 = number("p50");
    record.ns_per_op.p99 = number("p99");
    record.ns_per_op.stddev = number("stddev");
  }
  if (const Json* metrics = json.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    for (const auto& [k, v] : metrics->AsObject()) {
      if (v.type() != Json::Type::kNumber) return std::nullopt;
      record.metrics.emplace_back(k, v.AsNumber());
    }
  }
  return record;
}

// --- environment capture --------------------------------------------------

namespace {

// First output line of `command`, or empty on any failure.
std::string CommandLine(const char* command) {
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return {};
  char buf[256];
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string UtcTimestamp() {
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

Json CaptureEnvironment() {
  Json env = Json::Object();
  std::string sha = CommandLine("git rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) sha = "unknown";
  env.Set("git_sha", Json(sha));
  // `git diff-index` exits nonzero when the tree differs from HEAD.
  const std::string dirty = CommandLine(
      "git diff-index --quiet HEAD -- 2>/dev/null && echo clean || "
      "echo dirty");
  env.Set("git_dirty", Json(dirty == "dirty"));
  env.Set("compiler", Json(CompilerId()));
#ifdef FITREE_CXX_FLAGS
  env.Set("cxx_flags", Json(FITREE_CXX_FLAGS));
#else
  env.Set("cxx_flags", Json(""));
#endif
#ifdef FITREE_BUILD_TYPE
  env.Set("build_type", Json(FITREE_BUILD_TYPE));
#else
  env.Set("build_type", Json(""));
#endif
  env.Set("cpu", Json(CpuModel()));
  env.Set("hw_threads",
          Json(static_cast<uint64_t>(std::thread::hardware_concurrency())));
  env.Set("timestamp_utc", Json(UtcTimestamp()));

  // Every FITREE_* knob that is set (scale, thread caps, paths, ...): the
  // knobs change what a result means, so they travel with the results.
  Json knobs = Json::Object();
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const char* eq = std::strchr(*entry, '=');
    if (eq == nullptr) continue;
    const std::string name(*entry, static_cast<size_t>(eq - *entry));
    if (name.rfind("FITREE_", 0) == 0) knobs.Set(name, Json(eq + 1));
  }
  env.Set("env_knobs", std::move(knobs));
  return env;
}

Json TelemetryToJson() {
  namespace tm = fitree::telemetry;
  Json telem = Json::Object();
  telem.Set("sample_period", Json(tm::SamplePeriod()));

  const tm::RegistrySnapshot snap = tm::Registry::Get().Snapshot();

  // Per-(engine, op) traffic: exact call counts, plus the sampled latency
  // distribution when any samples were recorded. Zero-count cells are
  // omitted — the grid is sparse in any one bench configuration.
  Json ops = Json::Array();
  for (size_t e = 0; e < tm::kNumEngines; ++e) {
    for (size_t o = 0; o < tm::kNumOps; ++o) {
      const auto& cell = snap.ops[e][o];
      if (cell.count == 0) continue;
      Json entry = Json::Object();
      entry.Set("engine", Json(tm::EngineName(static_cast<tm::Engine>(e))));
      entry.Set("op", Json(tm::OpName(static_cast<tm::Op>(o))));
      entry.Set("count", Json(cell.count));
      entry.Set("samples", Json(cell.latency.total));
      if (!cell.latency.empty()) {
        entry.Set("p50_ns", Json(cell.latency.PercentileNs(50.0)));
        entry.Set("p99_ns", Json(cell.latency.PercentileNs(99.0)));
        entry.Set("p999_ns", Json(cell.latency.PercentileNs(99.9)));
        entry.Set("max_ns", Json(cell.latency.MaxNs()));
        entry.Set("mean_ns", Json(cell.latency.MeanNs()));
      }
      ops.Push(std::move(entry));
    }
  }
  telem.Set("ops", std::move(ops));

  // Per-(engine, phase) span attribution: counts are SAMPLED span counts
  // (phases only time inside a sampled op — see telemetry/phase.h) and the
  // latencies are self times, children excluded, so the phases of one op
  // sum to roughly its inclusive latency. Sparse like the ops grid.
  Json phases = Json::Array();
  for (size_t e = 0; e < tm::kNumEngines; ++e) {
    for (size_t p = 0; p < tm::kNumPhases; ++p) {
      const auto& cell = snap.phases[e][p];
      if (cell.count == 0) continue;
      Json entry = Json::Object();
      entry.Set("engine", Json(tm::EngineName(static_cast<tm::Engine>(e))));
      entry.Set("phase", Json(tm::PhaseName(static_cast<tm::Phase>(p))));
      entry.Set("samples", Json(cell.count));
      if (!cell.latency.empty()) {
        entry.Set("p50_ns", Json(cell.latency.PercentileNs(50.0)));
        entry.Set("p95_ns", Json(cell.latency.PercentileNs(95.0)));
        entry.Set("p99_ns", Json(cell.latency.PercentileNs(99.0)));
        entry.Set("max_ns", Json(cell.latency.MaxNs()));
        entry.Set("mean_ns", Json(cell.latency.MeanNs()));
      }
      phases.Push(std::move(entry));
    }
  }
  telem.Set("phases", std::move(phases));

  // All named counters and gauges, zero or not: a fixed-shape section is
  // what tools/stats_dump.py and diffing scripts key on.
  Json counters = Json::Object();
  for (size_t i = 0; i < tm::kNumCounters; ++i) {
    counters.Set(tm::CounterName(static_cast<tm::CounterId>(i)),
                 Json(snap.counters[i]));
  }
  telem.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (size_t i = 0; i < tm::kNumGauges; ++i) {
    gauges.Set(tm::GaugeName(static_cast<tm::GaugeId>(i)),
               Json(snap.gauges[i]));
  }
  telem.Set("gauges", std::move(gauges));

  return telem;
}

Json MakeResultsDocument(const Json& environment, int reps,
                         const std::vector<ResultRecord>& records) {
  Json doc = Json::Object();
  doc.Set("schema_version", Json(1));
  doc.Set("environment", environment);
  doc.Set("reps", Json(reps));
  Json results = Json::Array();
  for (const ResultRecord& r : records) results.Push(ResultRecordToJson(r));
  doc.Set("results", std::move(results));
  // Cumulative registry snapshot for the whole run: per-op counts and
  // latency percentiles across every experiment executed by this process.
  doc.Set("telemetry", TelemetryToJson());
  return doc;
}

Json MakeBaselineDocument(const Json& environment, int reps,
                          const std::vector<ResultRecord>& records) {
  Json doc = Json::Object();
  doc.Set("schema_version", Json(1));
  doc.Set("environment", environment);
  doc.Set("reps", Json(reps));
  Json results = Json::Array();
  for (const ResultRecord& r : records) {
    Json j = Json::Object();
    j.Set("experiment", Json(r.experiment));
    Json params = Json::Object();
    for (const auto& [k, v] : r.params) params.Set(k, Json(v));
    j.Set("params", std::move(params));
    if (r.ns_per_op.valid()) j.Set("ns_per_op", StatsToJson(r.ns_per_op));
    results.Push(std::move(j));
  }
  doc.Set("results", std::move(results));
  return doc;
}

}  // namespace fitree::bench
