// The four end-to-end workloads (bench/e2e/README.md says why each exists):
//
//   lookup_mem        FitingTree, 16M keys, closed-loop uniform lookups
//   write_mem         FitingTree, 4M keys, closed-loop 50/30/10/10
//                     read/insert/update/delete
//   lookup_disk_cold  DiskFitingTree, 4M keys, pool at 2% of leaf pages,
//                     closed-loop uniform lookups
//   serve_disk_mixed  ShardedIndex<DiskFitingTree>, 2 shards, 4M keys,
//                     open-loop Poisson arrivals, Zipf 90/5/5
//                     lookup/insert/update
//
// All index Weblogs keys at error 64 with payload = f(key). An untraced run
// reports the end-to-end metrics; a traced run measures the same workload
// untraced and then with every op sampled (FITREE_TELEM_SAMPLE=1 semantics),
// bracketing the traced window with registry snapshots so the per-layer
// numbers belong to this workload's timed window alone.

#ifndef FITREE_BENCH_E2E_WORKLOADS_H_
#define FITREE_BENCH_E2E_WORKLOADS_H_

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "common/options.h"
#include "core/fiting_tree.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "server/sharded_index.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "telemetry/registry.h"

namespace fitree::e2e {

// serve_disk_mixed's arrival rate, frozen by the calibration recorded in
// bench/e2e/README.md. Changing it redefines the workload.
inline constexpr double kServeRateKops = 100.0;

// setup_s is the median of this many consecutive builds; the last one
// serves the run. Three left a 22 ms build with a 26% run-to-run spread.
inline constexpr int kSetupBuilds = 5;

struct Params {
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny sizes, for checking the plumbing
  std::string data_dir;      // where index files are written
  bool ladder = false;       // serve_disk_mixed: also search the max rate
};

// Set-up stages of each build, in seconds: the whole build, the core
// segmentation inside it, and the index-file write (disk engines). Plus
// the process's peak RSS when set-up ended, before the oracle, op buffers
// and answer logs exist: the inputs and the index at its build peak.
struct SetupTimes {
  std::vector<double> total, core, file;
  double input_rss_mb = 0;  // peak RSS before the first build: the inputs
  double peak_rss_mb = 0;
};

// Engine state where the run samples it (see MeasureClosedLoop).
struct Facts {
  double segments = 0;
  double index_bytes = 0;
  double live_keys = 0;
  double file_bytes = 0;
  double delta_entries = 0;
};

// The traced window as the benchmark itself saw it, plus the registry
// delta over exactly that window.
struct TracedWindow {
  uint64_t ops = 0;
  double latency_ns = 0;      // sum of per-op latencies
  double bench_ns = 0;        // open loop: sum of generator lag
  double late_frac = 0;       // open loop: share sent > 50 us after due
  double p50_untraced_us = 0;
  double p50_traced_us = 0;
  telemetry::RegistrySnapshot delta;
};

// The engines the workloads run; the server's rows are read separately.
inline constexpr telemetry::Engine kEngines[] = {telemetry::Engine::kBuffered,
                                                 telemetry::Engine::kDisk};

// Self time of `phase` summed over the engines.
inline double EnginePhaseNs(const telemetry::RegistrySnapshot& d,
                            telemetry::Phase phase) {
  double ns = 0;
  for (const auto e : kEngines) ns += PhaseNs(d, e, phase);
  return ns;
}

inline uint64_t EngineOpCount(const telemetry::RegistrySnapshot& d,
                              telemetry::Op op) {
  uint64_t n = 0;
  for (const auto e : kEngines) n += d.op(e, op).count;
  return n;
}

inline void ReportEndToEnd(const SetupTimes& setup, double throughput_kops,
                           const LatencyWindows& lat, const Facts& facts,
                           Result* r) {
  r->Metric("setup_s", Median(setup.total), "s");
  r->Metric("throughput_kops", throughput_kops, "kops/s");
  r->Metric("latency_p50_us", lat.p50_us(), "us");
  // The gated tail is p90: on the serving workload the per-window p99 is
  // mostly a parked worker's wake-up on a shared VM, and its run-to-run
  // spread exceeded any usable bound (bench/e2e/README.md). p99 stays here.
  r->Metric("latency_p90_us", lat.p90_us(), "us");
  r->Diag("latency_p99_us", lat.p99_us(), "us");
  r->Metric("index_bytes_per_key", facts.index_bytes / facts.live_keys,
            "B/key");
  // Read when set-up ended: the oracle and the op buffers, which are the
  // benchmark's and not the index's, would otherwise dominate it.
  r->Metric("peak_rss_mb", setup.peak_rss_mb, "MB");
  r->Diag("input_rss_mb", setup.input_rss_mb, "MB");
  r->Diag("peak_rss_run_mb", PeakRssMb(), "MB");
  r->Diag("latency_windows", static_cast<double>(lat.windows()));
  r->Diag("latency_p50_window_range", lat.p50_window_range(), "fraction");
  r->Diag("latency_samples", static_cast<double>(lat.samples()));
  r->Diag("latency_whole_p99_us", lat.whole_us(99.0), "us");
  r->Diag("latency_whole_p999_us", lat.whole_us(99.9), "us");
  r->Diag("file_bytes_per_key", facts.file_bytes / facts.live_keys, "B/key");
}

// a / b, or 0 when nothing was counted.
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// The per-layer breakdown. Phase times are self times per op; the
// *_frac metrics are shares of the summed op latency, so the phases plus
// bench.unattributed_frac reconcile to the latency the client saw.
inline void ReportLayers(const TracedWindow& t, const SetupTimes& setup,
                         const Facts& facts, double route_ns,
                         double verify_ns, Result* r) {
  using telemetry::CounterId;
  using telemetry::Engine;
  using telemetry::Phase;
  const auto& d = t.delta;
  const double ops = static_cast<double>(std::max<uint64_t>(1, t.ops));
  const double lat = std::max(1.0, t.latency_ns);

  const double descent = EnginePhaseNs(d, Phase::kDirectoryDescent);
  const double window = EnginePhaseNs(d, Phase::kWindowSearch);
  const double probe = EnginePhaseNs(d, Phase::kBufferProbe) +
                       EnginePhaseNs(d, Phase::kDeltaProbe);
  const double page_io = EnginePhaseNs(d, Phase::kPageIo) +
                         EnginePhaseNs(d, Phase::kPageIoBatch);
  const double merge = EnginePhaseNs(d, Phase::kMergeResegment);
  const double compact = EnginePhaseNs(d, Phase::kCompact);
  const double engine = descent + window + probe + page_io + merge + compact;
  const double route = PhaseNs(d, Engine::kServer, Phase::kShardRoute);
  const double queue = PhaseNs(d, Engine::kServer, Phase::kShardQueueWait);
  const double exec = PhaseNs(d, Engine::kServer, Phase::kShardExec);
  // Server exec spans enclose the engine's phases; without a server the
  // engine phases sit directly inside the op.
  const bool served = exec > 0;
  const double attributed =
      t.bench_ns + (served ? route + queue + exec : engine);

  r->Metric("bench.unattributed_frac", 1.0 - attributed / lat, "fraction");
  r->Metric("bench.trace_overhead_frac",
            t.p50_traced_us / t.p50_untraced_us - 1.0, "fraction");
  r->Metric("bench.late_frac", t.late_frac, "fraction");

  const double batches =
      static_cast<double>(d.counter(CounterId::kServerBatches));
  const double merges =
      static_cast<double>(EngineOpCount(d, telemetry::Op::kMerge));
  const double compactions =
      static_cast<double>(EngineOpCount(d, telemetry::Op::kCompact));
  r->Metric("server.route_ns", route_ns, "ns");
  r->Metric("server.queue_wait_frac", queue / lat, "fraction");
  r->Metric("server.exec_frac", served ? (exec - engine) / lat : 0.0,
            "fraction");
  r->Metric("server.ops_per_batch",
            Ratio(static_cast<double>(d.counter(CounterId::kServerBatchOps)),
                  batches),
            "ops/batch");
  r->Metric("server.enqueue_stalls",
            static_cast<double>(d.counter(CounterId::kServerEnqueueStalls)),
            "count");

  r->Metric("core.build_s", Median(setup.core), "s");
  r->Metric("core.segments", facts.segments, "count");
  r->Metric("core.directory_descent_ns", descent / ops, "ns");
  r->Metric("core.window_search_ns", window / ops, "ns");
  r->Metric("core.buffer_probe_ns", probe / ops, "ns");
  r->Metric("core.merges_per_kop", 1000.0 * merges / ops, "1/kop");
  r->Metric("core.merge_frac", merge / lat, "fraction");

  r->Metric("storage.verify_ns_per_page", verify_ns, "ns");
  r->Metric("storage.pages_read_per_op",
            static_cast<double>(d.counter(CounterId::kIoPagesRead)) / ops,
            "pages/op");
  r->Metric("storage.page_io_frac", page_io / lat, "fraction");
  r->Metric("storage.file_write_frac",
            Median(setup.file) / Median(setup.total), "fraction");
  r->Metric("storage.compactions", compactions, "count");
  r->Metric("storage.compact_frac", compact / lat, "fraction");
  r->Metric("storage.compact_pages_rewritten",
            static_cast<double>(d.counter(CounterId::kCompactPagesRewritten)),
            "count");
  r->Metric("storage.delta_entries", facts.delta_entries, "count");
  r->Metric("storage.file_bytes_per_key", facts.file_bytes / facts.live_keys,
            "B/key");

  r->Diag("traced_ops", static_cast<double>(t.ops));
  r->Diag("traced_latency_ns_per_op", t.latency_ns / ops, "ns");
  r->Diag("p50_untraced_us", t.p50_untraced_us, "us");
  r->Diag("p50_traced_us", t.p50_traced_us, "us");
  const double hits = static_cast<double>(d.counter(CounterId::kIoCacheHits));
  const double misses =
      static_cast<double>(d.counter(CounterId::kIoCacheMisses));
  r->Diag("storage.pool_hits", hits, "count");
  r->Diag("storage.pool_misses", misses, "count");
  r->Diag("storage.hit_rate", Ratio(hits, hits + misses), "fraction");
  r->Diag("storage.page_io_ns", page_io / ops, "ns");
  r->Diag("storage.compact_ms", Ratio(compact / 1e6, compactions), "ms");
  r->Diag("core.merge_resegment_us", Ratio(merge / 1e3, merges), "us");
  r->Diag("server.route_phase_ns", route / ops, "ns");
  r->Diag("server.queue_wait_us", queue / ops / 1e3, "us");
  r->Diag("server.exec_us", exec / ops / 1e3, "us");
  r->Diag("bench.gen_lag_us", t.bench_ns / ops / 1e3, "us");
}

// Switches every op to sampled (the traced mode) or back to the default.
inline void SetTraced(bool on) {
  telemetry::SetSamplePeriodForTest(on ? 1 : GlobalOptions().telemetry_sample);
}

// Warm-up, then the measured window(s) of a closed-loop workload, reported
// as end-to-end or layer metrics per `p.trace`. `facts_of` reads the
// engine's state: after exactly `facts_at` stream ops for a mutating
// workload, at the end of the run when `facts_at` is 0.
template <typename Index, typename Oracle, typename FactsFn>
void MeasureClosedLoop(const Params& p, Index& index, OpStream& stream,
                       Oracle& oracle, const std::vector<Key>& keys,
                       const SetupTimes& setup, uint64_t facts_at,
                       FactsFn facts_of, Result* r) {
  ClosedLoop<Index, Oracle> loop(index, stream, oracle, 2'000'000);
  std::optional<Facts> facts;
  if (facts_at > 0) loop.SetCheckpoint(facts_at, [&] { facts = facts_of(); });
  const auto final_facts = [&] {
    loop.ReachCheckpoint();
    return facts ? *facts : facts_of();
  };
  loop.Run(p.smoke ? 0.1 : 0.5, nullptr);
  if (!p.trace) {
    LatencyWindows lat;
    const auto t = loop.Run(p.seconds, &lat);
    ReportEndToEnd(setup, static_cast<double>(t.ops) / Seconds(t.ns) / 1e3,
                   lat, final_facts(), r);
  } else {
    LatencyWindows untraced, traced;
    loop.Run(p.seconds / 2, &untraced);
    SetTraced(true);
    const auto before = telemetry::Registry::Get().Snapshot();
    const auto t = loop.Run(p.seconds / 2, &traced);
    TracedWindow tw;
    tw.delta = telemetry::Registry::Get().Snapshot().DeltaSince(before);
    SetTraced(false);
    tw.ops = t.ops;
    tw.latency_ns = static_cast<double>(t.latency_ns);
    tw.p50_untraced_us = untraced.p50_us();
    tw.p50_traced_us = traced.p50_us();
    ReportLayers(tw, setup, final_facts(), RouteProbeNs(keys, loop.pending()),
                 VerifyProbeNsPerPage(keys), r);
  }
  r->attempted += loop.attempted();
  r->wrong += loop.wrong();
}

inline OpMix LookupMix() {
  OpMix mix;
  mix.absent = 0.10;
  return mix;
}

inline size_t Scaled(const Params& p, size_t full) {
  return p.smoke ? std::min<size_t>(full, 200'000) : full;
}

// ---- in-memory engine ----------------------------------------------------

using MemTree = FitingTree<Key>;

template <typename Oracle>
Result RunMem(const Params& p, size_t n, const OpMix& mix, uint64_t facts_at,
              Oracle make_oracle) {
  Result r;
  const std::vector<Key> keys = datasets::Weblogs(n, p.seed);
  std::vector<uint64_t> values = PayloadsOf(keys);
  FitingTreeConfig config;
  config.error = kError;
  SetupTimes setup;
  setup.input_rss_mb = PeakRssMb();
  std::unique_ptr<MemTree> tree;
  for (int b = 0; b < kSetupBuilds; ++b) {
    tree.reset();
    const uint64_t t0 = NowNs();
    tree = MemTree::Create(keys, values, config);
    const double s = Seconds(NowNs() - t0);
    setup.total.push_back(s);
    setup.core.push_back(s);
    setup.file.push_back(0.0);
  }
  setup.peak_rss_mb = PeakRssMb();
  values = {};
  auto oracle = make_oracle(keys);
  OpStream stream(keys, mix, workloads::ThreadSeed(p.seed, 1));
  MeasureClosedLoop(p, *tree, stream, oracle, keys, setup, facts_at, [&] {
    Facts f;
    f.segments = static_cast<double>(tree->SegmentCount());
    f.index_bytes = static_cast<double>(tree->IndexSizeBytes());
    f.live_keys = static_cast<double>(tree->size());
    return f;
  }, &r);
  return r;
}

inline Result RunLookupMem(const Params& p) {
  return RunMem(p, Scaled(p, 16'000'000), LookupMix(), 0,
                [](const std::vector<Key>&) { return DatasetOracle{}; });
}

inline Result RunWriteMem(const Params& p) {
  OpMix mix;
  mix.insert = 0.30;
  mix.update = 0.10;
  mix.del = 0.10;
  // The sizes are read after exactly 4M stream ops, which every run passes
  // within its first seconds: read at the end of the run, they depended on
  // how many ops it managed (the flat directory's capacity doubles once
  // merges have grown it past its bulk-loaded size).
  return RunMem(p, Scaled(p, 4'000'000), mix, Scaled(p, 4'000'000),
                [](const std::vector<Key>& keys) { return MapOracle(keys); });
}

// ---- disk engine ---------------------------------------------------------

using DiskTree = storage::DiskFitingTree<Key>;

inline void AddDiskFacts(const DiskTree& t, Facts* f) {
  f->segments += static_cast<double>(t.SegmentCount());
  f->index_bytes += static_cast<double>(t.IndexSizeBytes());
  f->live_keys += static_cast<double>(t.size());
  f->file_bytes += static_cast<double>(t.FileBytes());
  f->delta_entries += static_cast<double>(t.DeltaEntries());
}

inline std::string IndexPath(const Params& p, const std::string& name) {
  return p.data_dir + "/" + name + "-" + std::to_string(::getpid()) + ".fit";
}

// Builds the static tree, writes the index file, and returns its leaf-page
// count; adds the two stages' seconds to *core_s and *file_s.
inline uint64_t WriteIndex(const std::vector<Key>& keys,
                           const std::vector<uint64_t>& values,
                           const std::string& path, double* core_s,
                           double* file_s) {
  const uint64_t t0 = NowNs();
  const auto st = StaticFitingTree<Key>::Create(keys, values, kError);
  const uint64_t t1 = NowNs();
  if (!storage::WriteIndexFile(path, *st)) {
    std::fprintf(stderr, "fitree_e2e: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  *core_s += Seconds(t1 - t0);
  *file_s += Seconds(NowNs() - t1);
  uint64_t leaf_pages = 0;
  const size_t cap = storage::LeafCapacity<Key>(storage::kDefaultPageBytes);
  for (const auto& seg : st->ExportSegmentTable()) {
    leaf_pages += storage::PagesForRecords(seg.length, cap);
  }
  return leaf_pages;
}

inline Result RunLookupDiskCold(const Params& p) {
  Result r;
  const std::vector<Key> keys =
      datasets::Weblogs(Scaled(p, 4'000'000), p.seed);
  std::vector<uint64_t> values = PayloadsOf(keys);
  const std::string path = IndexPath(p, "lookup_disk_cold");
  SetupTimes setup;
  setup.input_rss_mb = PeakRssMb();
  std::unique_ptr<DiskTree> tree;
  for (int b = 0; b < kSetupBuilds; ++b) {
    tree.reset();
    double core = 0, file = 0;
    const uint64_t t0 = NowNs();
    const uint64_t leaf_pages = WriteIndex(keys, values, path, &core, &file);
    DiskTree::Options options;
    options.cache_pages = std::max<uint64_t>(1, leaf_pages / 50);  // 2%
    tree = DiskTree::Open(path, options);
    if (tree == nullptr) {
      std::fprintf(stderr, "fitree_e2e: cannot open %s\n", path.c_str());
      std::exit(1);
    }
    setup.total.push_back(Seconds(NowNs() - t0));
    setup.core.push_back(core);
    setup.file.push_back(file);
  }
  setup.peak_rss_mb = PeakRssMb();
  values = {};
  DatasetOracle oracle;
  OpStream stream(keys, LookupMix(), workloads::ThreadSeed(p.seed, 1));
  MeasureClosedLoop(p, *tree, stream, oracle, keys, setup, 0, [&] {
    Facts f;
    AddDiskFacts(*tree, &f);
    return f;
  }, &r);
  if (tree->io_error()) ++r.io_errors;
  r.Diag("storage.cache_pages", static_cast<double>(tree->CacheCapacityBytes() /
                                                    storage::kDefaultPageBytes));
  tree.reset();
  std::remove(path.c_str());
  return r;
}

// ---- sharded server over disk shards ------------------------------------

using Server = server::ShardedIndex<DiskTree>;

// Open loop, one generator thread: requests fall due on a Poisson schedule
// whatever the server's progress, and a request's latency runs from its due
// time to the moment the generator sees it completed. Between submissions
// the same thread polls the outstanding response slots, so the workload
// runs three threads: this one and the two shard workers.
class OpenLoop {
 public:
  struct Timed {
    uint64_t ops = 0;
    uint64_t ns = 0;  // first due time to last completion
    double latency_ns = 0;
    double lag_ns = 0;
    uint64_t late = 0;         // sent more than kLateNs after due
    uint64_t incomplete = 0;   // not answered by the drain deadline
    double lag_p99_us = 0;
    double submit_ns = 0;      // mean SubmitAsync duration
  };

  static constexpr uint64_t kLateNs = 50'000;
  static constexpr uint64_t kDrainNs = 2'000'000'000;

  OpenLoop(Server& server, OpStream& stream, MapOracle& oracle, uint64_t seed)
      : server_(server),
        stream_(stream),
        oracle_(oracle),
        rng_(seed),
        slots_(std::make_unique<Server::Slot[]>(kRing)) {}

  Timed Run(double seconds, double rate_per_s, LatencyWindows* windows) {
    // Schedule, ops and result arrays are all sized before the clock starts.
    std::exponential_distribution<double> gap(rate_per_s / 1e9);
    const double horizon = seconds * 1e9;
    std::vector<uint64_t> due;
    due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
    for (double t = gap(rng_); t < horizon; t += gap(rng_)) {
      due.push_back(static_cast<uint64_t>(t));
    }
    const size_t n = due.size();
    std::vector<Op> ops(n);
    for (Op& op : ops) op = stream_.Next();
    std::vector<uint64_t> sent(n), done(n, 0), answers(n);
    double submit_total = 0;

    const uint64_t start = NowNs() + 100'000;
    for (uint64_t& d : due) d += start;
    size_t next = 0, oldest = 0;
    uint64_t in_time = 0;
    const uint64_t deadline = (n == 0 ? start : due.back()) + kDrainNs;
    for (;;) {
      uint64_t now = NowNs();
      while (next < n && now >= due[next] && next - oldest < kRing) {
        Server::Slot& slot = slots_[next & (kRing - 1)];
        slot.Reset();
        Server::Req req;
        req.op = ReqOpOf(ops[next].kind);
        req.key = ops[next].key;
        req.value = ops[next].kind == OpKind::kInsert
                        ? PayloadOf(req.key)
                        : UpdatedPayload(req.key, seq_ + next);
        req.slot = &slot;
        sent[next] = now;
        server_.SubmitAsync(req);
        const uint64_t after = NowNs();
        submit_total += static_cast<double>(after - now);
        now = after;
        ++next;
      }
      const size_t scan_end = std::min(next, oldest + 4096);
      for (size_t j = oldest; j < scan_end; ++j) {
        if (done[j] != 0) continue;
        const Server::Slot& slot = slots_[j & (kRing - 1)];
        if (!slot.Ready()) continue;
        done[j] = now;
        answers[j] = ops[j].kind == OpKind::kLookup
                         ? (slot.found ? slot.value : kAbsent)
                         : (slot.ok ? 1 : 0);
        if (now <= deadline) ++in_time;
      }
      while (oldest < next && done[oldest] != 0) ++oldest;
      if (oldest == n) break;
      if (now > deadline + 30 * kDrainNs) {
        // The server still holds pointers into slots_; bail out hard.
        std::fprintf(stderr, "fitree_e2e: %zu requests never completed\n",
                     n - oldest);
        std::_Exit(3);
      }
    }

    Timed t;
    t.ops = n;
    t.incomplete = n - in_time;
    std::vector<std::vector<uint32_t>> per_window;
    std::vector<uint32_t> lag(n);
    uint64_t last = start;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t latency = done[i] - due[i];
      t.latency_ns += static_cast<double>(latency);
      lag[i] = static_cast<uint32_t>(
          std::min<uint64_t>(sent[i] - due[i], UINT32_MAX));
      t.lag_ns += lag[i];
      if (lag[i] > kLateNs) ++t.late;
      last = std::max(last, done[i]);
      const size_t w = (due[i] - start) / kWindowNs;
      if (w >= per_window.size()) per_window.resize(w + 1);
      per_window[w].push_back(
          static_cast<uint32_t>(std::min<uint64_t>(latency, UINT32_MAX)));
    }
    t.ns = last - start;
    t.lag_p99_us = n == 0 ? 0.0 : static_cast<double>(Percentile(lag, 0.99)) / 1e3;
    t.submit_ns = n == 0 ? 0.0 : submit_total / static_cast<double>(n);
    if (windows != nullptr) {
      for (auto& w : per_window) windows->Add(w);
    }
    for (size_t i = 0; i < n; ++i) {
      if (answers[i] != oracle_.Apply(ops[i], seq_ + i)) ++wrong_;
    }
    attempted_ += n;
    seq_ += n;
    last_ops_ = std::move(ops);
    return t;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t wrong() const { return wrong_; }
  std::span<const Op> last_ops() const { return last_ops_; }

 private:
  static constexpr size_t kRing = size_t{1} << 16;

  static server::ReqOp ReqOpOf(OpKind kind) {
    switch (kind) {
      case OpKind::kLookup: return server::ReqOp::kLookup;
      case OpKind::kInsert: return server::ReqOp::kInsert;
      case OpKind::kUpdate: return server::ReqOp::kUpdate;
      case OpKind::kDelete: return server::ReqOp::kDelete;
    }
    return server::ReqOp::kLookup;
  }

  Server& server_;
  OpStream& stream_;
  MapOracle& oracle_;
  std::mt19937_64 rng_;
  std::unique_ptr<Server::Slot[]> slots_;
  std::vector<Op> last_ops_;
  uint64_t seq_ = 0;
  uint64_t attempted_ = 0;
  uint64_t wrong_ = 0;
};

inline Result RunServeDiskMixed(const Params& p) {
  Result r;
  const std::vector<Key> keys =
      datasets::Weblogs(Scaled(p, 4'000'000), p.seed);
  std::vector<uint64_t> values = PayloadsOf(keys);
  std::vector<std::string> paths;
  SetupTimes setup;
  setup.input_rss_mb = PeakRssMb();
  std::unique_ptr<Server> srv;
  for (int b = 0; b < kSetupBuilds; ++b) {
    srv.reset();  // joins the workers and closes the previous files
    double core = 0, file = 0;
    size_t shard = 0;
    Server::Factory factory = [&](const std::vector<Key>& k,
                                  const std::vector<uint64_t>& v) {
      const std::string path =
          IndexPath(p, "serve_disk_mixed-" + std::to_string(shard++));
      if (std::find(paths.begin(), paths.end(), path) == paths.end()) {
        paths.push_back(path);
      }
      const uint64_t leaf_pages = WriteIndex(k, v, path, &core, &file);
      DiskTree::Options options;
      options.cache_pages = leaf_pages + leaf_pages / 4;  // 125%: it fits
      options.compact_threshold_pct = 5;
      return DiskTree::Open(path, options);
    };
    Server::Config config;
    config.shards = 2;
    // Worker i runs on CPU i and the generator on the next CPU (below):
    // left to the scheduler, the three threads land on different vCPUs
    // each run, and the run-to-run latency spread on a 4-vCPU VM grew by
    // about half (bench/e2e/README.md, calibration record).
    config.pin_threads = true;
    const uint64_t t0 = NowNs();
    srv = Server::Create(keys, values, factory, config);
    if (srv == nullptr) {
      std::fprintf(stderr, "fitree_e2e: server set-up failed\n");
      std::exit(1);
    }
    setup.total.push_back(Seconds(NowNs() - t0));
    setup.core.push_back(core);
    setup.file.push_back(file);
  }
  values = {};
#if defined(__linux__)
  {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(srv->shard_count() % std::max(1u, std::thread::hardware_concurrency()),
            &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
#endif

  // Fault every leaf page into the (125%) pools, so the run measures the
  // serving path rather than first-touch misses. Checked like any answer.
  const size_t step = storage::LeafCapacity<Key>(storage::kDefaultPageBytes) / 2;
  for (size_t i = 0; i < keys.size(); i += step) {
    const auto v = srv->Lookup(keys[i]);
    ++r.attempted;
    if (!v || *v != PayloadOf(keys[i])) ++r.wrong;
  }
  // The pools' frames are resident only once filled, so RSS is read here.
  setup.peak_rss_mb = PeakRssMb();

  MapOracle oracle(keys);
  OpMix mix;
  mix.insert = 0.05;
  mix.update = 0.05;
  mix.zipf = true;
  OpStream stream(keys, mix, workloads::ThreadSeed(p.seed, 1));
  OpenLoop loop(*srv, stream, oracle, workloads::ThreadSeed(p.seed, 2));
  const double rate = kServeRateKops * 1e3;
  loop.Run(p.smoke ? 0.2 : 1.0, rate, nullptr);

  const auto facts_of = [&] {
    Facts f;
    for (size_t s = 0; s < srv->shard_count(); ++s) {
      AddDiskFacts(srv->shard_engine(s), &f);
    }
    return f;
  };
  const auto add_open_loop_diags = [&](const OpenLoop::Timed& t) {
    r.incomplete += t.incomplete;
    // A generator that sent over 1% of requests more than 50 us late was
    // not applying the schedule; such a run measures nothing.
    const double late = static_cast<double>(t.late) / static_cast<double>(t.ops);
    if (late > 0.01) {
      std::fprintf(stderr, "fitree_e2e: invalid run: %.2f%% of requests sent "
                   "late\n", 100 * late);
    }
    r.Diag("bench.run_valid", late > 0.01 ? 0.0 : 1.0);
    r.Diag("bench.late_frac", late, "fraction");
    r.Diag("bench.gen_lag_p99_us", t.lag_p99_us, "us");
    r.Diag("server.submit_ns", t.submit_ns, "ns");
    r.Diag("offered_kops", rate / 1e3, "kops/s");
  };
  if (!p.trace) {
    LatencyWindows lat;
    const auto t = loop.Run(p.seconds, rate, &lat);
    ReportEndToEnd(setup, static_cast<double>(t.ops) / Seconds(t.ns) / 1e3,
                   lat, facts_of(), &r);
    add_open_loop_diags(t);
  } else {
    LatencyWindows untraced, traced;
    const auto u = loop.Run(p.seconds / 2, rate, &untraced);
    r.incomplete += u.incomplete;
    SetTraced(true);
    const auto before = telemetry::Registry::Get().Snapshot();
    const auto t = loop.Run(p.seconds / 2, rate, &traced);
    TracedWindow tw;
    tw.delta = telemetry::Registry::Get().Snapshot().DeltaSince(before);
    SetTraced(false);
    tw.ops = t.ops;
    tw.latency_ns = t.latency_ns;
    tw.bench_ns = t.lag_ns;
    tw.late_frac = static_cast<double>(t.late) / static_cast<double>(t.ops);
    tw.p50_untraced_us = untraced.p50_us();
    tw.p50_traced_us = traced.p50_us();
    ReportLayers(tw, setup, facts_of(), RouteProbeNs(keys, loop.last_ops()),
                 VerifyProbeNsPerPage(keys), &r);
    add_open_loop_diags(t);
  }
  if (p.ladder) {
    // Highest rate on a x1.25 ladder whose 2 s window keeps p99 within the
    // 200 us limit with no late sends and no backlog at the drain.
    double best = 0;
    for (double k = rate; k < 50 * rate; k *= 1.25) {
      LatencyWindows lat;
      const auto t = loop.Run(2.0, k, &lat);
      r.incomplete += t.incomplete;
      const bool ok = lat.whole_us(99.0) <= 200.0 && t.incomplete == 0 &&
                      t.late * 100 <= t.ops;
      std::fprintf(stderr, "ladder %.0f kops/s: p99 %.1f us late %.4f %s\n",
                   k / 1e3, lat.whole_us(99.0),
                   static_cast<double>(t.late) / static_cast<double>(t.ops),
                   ok ? "ok" : "over");
      if (!ok) break;
      best = k;
    }
    r.Diag("server.max_rate_kops", best / 1e3, "kops/s");
  }
  r.attempted += loop.attempted();
  r.wrong += loop.wrong();
  r.Diag("server.avg_batch", srv->Stats().Get("avg_batch"), "ops/batch");
  for (size_t s = 0; s < srv->shard_count(); ++s) {
    if (srv->shard_engine(s).io_error()) ++r.io_errors;
  }
  srv.reset();
  for (const auto& path : paths) std::remove(path.c_str());
  return r;
}

}  // namespace fitree::e2e

#endif  // FITREE_BENCH_E2E_WORKLOADS_H_
