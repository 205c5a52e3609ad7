// Load generator for the sharded batched index server
// (server/sharded_index.h): simulated clients submit YCSB-style op streams
// through the server's async API and the cells report aggregate throughput
// plus sampled client-observed completion latency (p50/p99).
//
// Three sweeps share one driver:
//   1. shard sweep   — shards (1, 2, 4) x mix (A/B/C) x access
//                      (uniform/zipfian) at the default batch, open loop.
//   2. batch ablation— shards fixed at the sweep max, mix C, batch in
//                      {1, 8, 32, 128}: the cost of unbatched dispatch vs
//                      batched drains. avg_batch rides along so the
//                      table shows how full the batches actually ran.
//   3. closed loop   — pipeline window 1 (a client waits out each request
//                      before the next): the per-request round-trip floor,
//                      vs the open-loop cells' window-32 pipelining.
//
// "Open loop" here is pipelined closed-loop: each client keeps `window`
// requests outstanding, which approximates open-loop arrivals while
// keeping backpressure bounded (a true unbounded open loop would just
// measure the op queues overflowing). Latency samples are client-observed
// completion times — submit to response-publish, *including* time queued
// behind the client's own window — which is what a real pipelined client
// experiences.
//
// Every rep is validated: the quiesced server must match a std::set
// reference (size, sampled membership, cross-shard range scans), and the
// server's registry op rows must equal the issued totals exactly.
// profile_report.py decomposes the same runs into the kShardRoute /
// kShardQueueWait / kShardExec phases.
//
// Env knobs (see EXPERIMENTS.md): FITREE_BENCH_SCALE / FITREE_BENCH_N /
// FITREE_BENCH_OPS size the run, FITREE_BENCH_CLIENTS sets the client
// count (default 4), FITREE_BENCH_WINDOW the open-loop pipeline depth
// (default 32), FITREE_BENCH_MAX_SHARDS caps the shard sweep (default 4),
// and FITREE_SHARDS / FITREE_BATCH set the server defaults the non-ablation
// cells inherit.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "common/options.h"
#include "core/fiting_tree.h"
#include "datasets/datasets.h"
#include "server/sharded_index.h"
#include "telemetry/registry.h"
#include "workloads/workloads.h"

namespace fitree::bench {
namespace {

using workloads::Access;
using workloads::Op;
using workloads::OpMix;
using workloads::OpType;

using Key = int64_t;
using Engine = FitingTree<Key>;
using Server = server::ShardedIndex<Engine>;
using Streams = std::vector<std::vector<Op<Key>>>;

constexpr uint64_t kBaseSeed = 0x5E47E5EEDull;
constexpr int kLatencySampleEvery = 16;

struct RunResult {
  double ns_per_op = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

server::ShardedIndex<Engine>::Factory MakeFactory(double error) {
  return [error](const std::vector<Key>& keys,
                 const std::vector<uint64_t>& values) {
    FitingTreeConfig config;
    config.error = error;
    return Engine::Create(keys, values, config);
  };
}

// One client thread: submit `ops` through the async API keeping up to
// `window` requests outstanding (window 1 == strict closed loop), sampling
// every kLatencySampleEvery-th op's submit-to-completion time.
template <typename S>
RunResult DriveClients(S& srv, const Streams& streams, size_t window) {
  const int clients = static_cast<int>(streams.size());
  std::vector<std::vector<int64_t>> samples(streams.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(streams.size());
  Timer wall;
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<Op<Key>>& ops = streams[static_cast<size_t>(t)];
      std::vector<int64_t>& lat = samples[static_cast<size_t>(t)];
      lat.reserve(ops.size() / kLatencySampleEvery + 1);
      const size_t win = std::max<size_t>(1, window);
      std::vector<typename S::Slot> slots(win);
      std::vector<uint64_t> sent_ns(win, 0);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t sink = 0;
      const auto reap = [&](size_t idx) {
        slots[idx].Wait();
        sink += slots[idx].ok ? 1 : 0;
        if (sent_ns[idx] != 0) {
          lat.push_back(static_cast<int64_t>(telemetry::NowNs() -
                                             sent_ns[idx]));
        }
        slots[idx].Reset();
      };
      for (size_t i = 0; i < ops.size(); ++i) {
        const size_t idx = i % win;
        if (i >= win) reap(idx);
        const Op<Key>& op = ops[i];
        typename S::Req req;
        switch (op.type) {
          case OpType::kRead:
            req.op = server::ReqOp::kLookup;
            break;
          case OpType::kInsert:
            req.op = server::ReqOp::kInsert;
            req.value = op.value;
            break;
          case OpType::kUpdate:
            req.op = server::ReqOp::kUpdate;
            req.value = op.value;
            break;
          case OpType::kDelete:
            req.op = server::ReqOp::kDelete;
            break;
          case OpType::kScan:
            // The server's sync ScanRange is the scan surface; the sweep
            // mixes here are scan-free, so treat any stray scan as a read.
            req.op = server::ReqOp::kLookup;
            break;
        }
        req.key = op.key;
        req.slot = &slots[idx];
        sent_ns[idx] =
            i % kLatencySampleEvery == 0 ? telemetry::NowNs() : 0;
        srv.SubmitAsync(req);
      }
      // Drain the window: every slot with an assigned request is pending.
      const size_t outstanding = std::min(win, ops.size());
      const size_t base = ops.size() - outstanding;
      for (size_t j = 0; j < outstanding; ++j) reap((base + j) % win);
      SinkValue(sink);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  wall.Reset();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double ns = static_cast<double>(wall.ElapsedNs());

  size_t total_ops = 0;
  for (const auto& s : streams) total_ops += s.size();
  std::vector<int64_t> merged;
  for (auto& s : samples) merged.insert(merged.end(), s.begin(), s.end());
  std::sort(merged.begin(), merged.end());
  RunResult r;
  r.ns_per_op = total_ops > 0 ? ns / static_cast<double>(total_ops) : 0.0;
  if (!merged.empty()) {
    r.p50_ns = static_cast<double>(merged[merged.size() / 2]);
    r.p99_ns = static_cast<double>(merged[merged.size() * 99 / 100]);
  }
  return r;
}

struct IssuedOps {
  uint64_t lookups = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
};

IssuedOps CountIssuedOps(const Streams& streams) {
  IssuedOps issued;
  for (const auto& stream : streams) {
    for (const Op<Key>& op : stream) {
      switch (op.type) {
        case OpType::kRead:
        case OpType::kScan: ++issued.lookups; break;
        case OpType::kInsert: ++issued.inserts; break;
        case OpType::kUpdate: ++issued.updates; break;
        case OpType::kDelete: ++issued.deletes; break;
      }
    }
  }
  return issued;
}

// Point-in-time read of the server's registry op row.
IssuedOps ServerOpCounts() {
  namespace tel = fitree::telemetry;
  auto& reg = tel::Registry::Get();
  const auto load = [&](tel::Op op) {
    return reg.op_count(tel::Engine::kServer, op).Load();
  };
  IssuedOps c;
  c.lookups = load(tel::Op::kLookup);
  c.inserts = load(tel::Op::kInsert);
  c.updates = load(tel::Op::kUpdate);
  c.deletes = load(tel::Op::kDelete);
  return c;
}

// The server's op rows count requests exactly (Submit counts before
// enqueue), so after the clients drain their windows the registry delta
// must equal the issued totals. Runs before Validate(), whose probes land
// on the same rows.
void ValidateTelemetryCounts(const IssuedOps& before, const IssuedOps& after,
                             const IssuedOps& issued) {
  if (!fitree::telemetry::kEnabled) return;
  const auto check = [](const char* op, uint64_t got, uint64_t want) {
    if (got != want) {
      Die(std::string("server: telemetry ") + op + " count " +
          std::to_string(got) + " != issued " + std::to_string(want));
    }
  };
  check("lookup", after.lookups - before.lookups, issued.lookups);
  check("insert", after.inserts - before.inserts, issued.inserts);
  check("update", after.updates - before.updates, issued.updates);
  check("delete", after.deletes - before.deletes, issued.deletes);
}

// Reference final state: base keys plus every inserted key (set semantics
// make the result schedule-independent; the sweep mixes never delete).
std::set<Key> ReferenceSet(const std::vector<Key>& keys,
                           const Streams& streams) {
  std::set<Key> ref(keys.begin(), keys.end());
  for (const auto& stream : streams) {
    for (const Op<Key>& op : stream) {
      if (op.type == OpType::kInsert) ref.insert(op.key);
    }
  }
  return ref;
}

// Post-run validation of the quiesced server (all client requests
// answered): size, sampled membership through the request path, and
// cross-shard range scans, against the reference set.
void Validate(Server& srv, const std::set<Key>& ref, const char* label) {
  if (srv.size() != ref.size()) {
    Die(std::string("server: ") + label + ": size " +
        std::to_string(srv.size()) + " != reference " +
        std::to_string(ref.size()));
  }
  std::mt19937_64 rng(kBaseSeed ^ 0xABCD);
  std::vector<Key> ref_keys(ref.begin(), ref.end());
  for (int i = 0; i < 2000; ++i) {
    const Key probe = i % 2 == 0
                          ? ref_keys[rng() % ref_keys.size()]
                          : static_cast<Key>(rng() % (ref_keys.back() + 2));
    if (srv.Contains(probe) != (ref.count(probe) > 0)) {
      Die(std::string("server: ") + label + ": membership mismatch at key " +
          std::to_string(probe));
    }
  }
  for (int i = 0; i < 10; ++i) {
    const size_t start = rng() % ref_keys.size();
    const size_t end =
        std::min(ref_keys.size() - 1, start + ref_keys.size() / 100);
    std::vector<Key> got;
    const size_t n = srv.ScanRange(
        ref_keys[start], ref_keys[end],
        [&](const Key& k, const uint64_t&) { got.push_back(k); });
    const auto lo = ref.lower_bound(ref_keys[start]);
    const auto hi = ref.upper_bound(ref_keys[end]);
    if (n != got.size() ||
        !std::equal(got.begin(), got.end(), lo, hi)) {
      Die(std::string("server: ") + label + ": range scan mismatch at query " +
          std::to_string(i));
    }
  }
}

void RunServer(Runner& runner) {
  const size_t n = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_N", static_cast<int64_t>(ScaledN(400'000))));
  const size_t ops_per_client = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_OPS", static_cast<int64_t>(ScaledN(40'000))));
  const int clients = std::max(1, GetEnvInt("FITREE_BENCH_CLIENTS", 4));
  const size_t window = static_cast<size_t>(
      std::max(1, GetEnvInt("FITREE_BENCH_WINDOW", 32)));
  const size_t max_shards = static_cast<size_t>(
      std::max(1, GetEnvInt("FITREE_BENCH_MAX_SHARDS", 4)));
  const size_t default_batch = GlobalOptions().batch;  // FITREE_BATCH
  const double error = 128.0;

  const auto keys = MemoKeys("real/Weblogs/" + std::to_string(n) + "/11",
                             [&] { return datasets::Weblogs(n, 11); });
  std::printf(
      "server: %zu keys, %zu ops/client, %d clients, window=%zu, "
      "max_shards=%zu, default_batch=%zu, hw_threads=%u\n",
      keys->size(), ops_per_client, clients, window, max_shards,
      default_batch, std::thread::hardware_concurrency());

  // One measured cell: build-per-rep, drive, telemetry-exactness check,
  // oracle validation; reports Mops + sampled latency + realized batching.
  const auto run_cell = [&](const char* loop, size_t shards, size_t batch,
                            const char* mix_name, const OpMix& mix,
                            Access access, size_t win, size_t ops_count) {
    const auto streams = workloads::MakeThreadOpStreams<Key>(
        *keys, clients, ops_count, mix, access, /*scan_selectivity=*/0.0,
        kBaseSeed);
    const std::set<Key> ref = ReferenceSet(*keys, streams);
    const IssuedOps issued = CountIssuedOps(streams);
    const char* access_name =
        access == Access::kUniform ? "uniform" : "zipfian";

    RunResult last;
    double avg_batch = 0.0, batches = 0.0;
    const Stats stats = runner.CollectReps(
        [&] {
          Server::Config config;
          config.shards = shards;
          config.batch = batch;
          auto srv = Server::Create(*keys, {}, MakeFactory(error), config);
          if (srv == nullptr) Die("server: Create failed");
          const IssuedOps before = ServerOpCounts();
          last = DriveClients(*srv, streams, win);
          const IssuedOps after = ServerOpCounts();
          ValidateTelemetryCounts(before, after, issued);
          Validate(*srv, ref, mix_name);
          const auto s = srv->Stats();
          avg_batch = s.Get("avg_batch");
          batches = s.Get("batches");
          return last.ns_per_op;
        },
        /*warmup=*/false);
    runner.Report({{"loop", loop},
                   {"shards", std::to_string(shards)},
                   {"batch", std::to_string(batch)},
                   {"mix", mix_name},
                   {"access", access_name},
                   {"clients", std::to_string(clients)}},
                  stats,
                  {{"Mops", MopsFromNsPerOp(stats.p50)},
                   {"p50_ns", last.p50_ns},
                   {"p99_ns", last.p99_ns},
                   {"avg_batch", avg_batch},
                   {"batches", batches}});
    return MopsFromNsPerOp(stats.p50);
  };

  const struct {
    const char* name;
    OpMix mix;
  } mixes[] = {
      {"A(50r/50i)", {.read = 0.5, .insert = 0.5}},
      {"B(95r/5i)", {.read = 0.95, .insert = 0.05}},
      {"C(100r)", {.read = 1.0}},
  };
  const Access accesses[] = {Access::kUniform, Access::kZipfian};

  // 1. Shard sweep at the default batch, open loop.
  for (const auto& mix : mixes) {
    for (const Access access : accesses) {
      for (size_t shards = 1; shards <= max_shards; shards *= 2) {
        run_cell("open", shards, default_batch, mix.name, mix.mix, access,
                 window, ops_per_client);
      }
    }
  }

  // 2. Batching ablation at the sweep's max shard count: unbatched
  // dispatch (batch=1) vs increasingly batched drains.
  const size_t ablation_batches[] = {1, 8, 32, 128};
  for (const Access access : accesses) {
    double mops_b1 = 0.0, mops_best = 0.0;
    size_t best_batch = 1;
    for (const size_t batch : ablation_batches) {
      const double mops = run_cell("open", max_shards, batch, "C(100r)",
                                   mixes[2].mix, access, window,
                                   ops_per_client);
      if (batch == 1) mops_b1 = mops;
      if (mops > mops_best) {
        mops_best = mops;
        best_batch = batch;
      }
    }
    std::printf(
        "server: ablation (%s, %zu shards): batch=%zu best at %.2f Mops "
        "(%.2fx batch=1's %.2f)\n",
        access == Access::kUniform ? "uniform" : "zipfian", max_shards,
        best_batch, mops_best, mops_b1 > 0.0 ? mops_best / mops_b1 : 0.0,
        mops_b1);
  }

  // 3. Closed loop (window 1): the per-request round-trip floor. Fewer
  // ops — every op pays a full client<->worker handoff.
  for (size_t shards = 1; shards <= max_shards; shards *= 4) {
    run_cell("closed", shards, default_batch, "C(100r)", mixes[2].mix,
             Access::kUniform, /*win=*/1,
             std::max<size_t>(1, ops_per_client / 8));
  }
}

FITREE_REGISTER_EXPERIMENT(
    "server",
    "sharded batched index server: shard sweep, batch ablation, loop modes",
    RunServer);

}  // namespace
}  // namespace fitree::bench
