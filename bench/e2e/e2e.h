// Shared machinery of the end-to-end benchmark (see bench/e2e/README.md):
// the seeded op stream and its oracles, the closed-loop runner, per-window
// latency percentiles, the layer probes, and the result record that main.cc
// prints. Everything here talks to the library through its public headers
// only; the spans this file records sit around calls into the library,
// never inside it.

#ifndef FITREE_BENCH_E2E_E2E_H_
#define FITREE_BENCH_E2E_E2E_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sink.h"
#include "server/shard_router.h"
#include "storage/page.h"
#include "storage/segment_file.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "workloads/workloads.h"

namespace fitree::e2e {

using Key = int64_t;

// Every workload indexes Weblogs keys at the same error bound.
inline constexpr double kError = 64.0;
// Answer-log encoding: lookups log the payload or kAbsent, mutations log
// their bool result. Payloads stay below 2^62, so kAbsent never collides.
inline constexpr uint64_t kAbsent = ~uint64_t{0};
// Latency percentiles are taken per window of this length and the run
// reports their median, so one noisy second moves one window, not the run.
inline constexpr uint64_t kWindowNs = 1'000'000'000;

inline uint64_t NowNs() { return telemetry::NowNs(); }

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// payload = f(key) for the loaded data and for inserts; an update at stream
// position `seq` writes a different, equally checkable value.
inline uint64_t PayloadOf(Key key) {
  return Mix64(static_cast<uint64_t>(key)) >> 2;
}
inline uint64_t UpdatedPayload(Key key, uint64_t seq) {
  return Mix64(static_cast<uint64_t>(key) ^ Mix64(seq + 1)) >> 2;
}

inline std::vector<uint64_t> PayloadsOf(const std::vector<Key>& keys) {
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = PayloadOf(keys[i]);
  return values;
}

enum class OpKind : uint8_t { kLookup, kInsert, kUpdate, kDelete };

struct Op {
  Key key = 0;
  OpKind kind = OpKind::kLookup;
  bool in_base = false;  // the key is part of the loaded dataset
};

// Shares of each op kind (lookups take the rest), the share of lookups
// that probe keys absent from the dataset, and the key popularity.
struct OpMix {
  double insert = 0.0;
  double update = 0.0;
  double del = 0.0;
  double absent = 0.0;
  bool zipf = false;
};

// Endless op stream over a sorted dataset, fully determined by the seed.
// Lookup, update and delete keys come from the dataset (uniform or Zipf
// 0.99); inserts and absent lookups fall strictly inside dataset gaps.
// The draw repeats workloads::MakeOpStream's, a known duplicate until that
// generator can run endlessly (bench/e2e/README.md, "Op streams").
class OpStream {
 public:
  OpStream(const std::vector<Key>& keys, const OpMix& mix, uint64_t seed)
      : keys_(keys), mix_(mix), rng_(seed) {
    if (mix.zipf) zipf_.emplace(keys.size());
  }

  Op Next() {
    const double draw = unif_(rng_);
    Op op;
    if (draw < mix_.insert) {
      op.kind = OpKind::kInsert;
      GapKey(&op);
    } else if (draw < mix_.insert + mix_.update) {
      op.kind = OpKind::kUpdate;
      BaseKey(&op);
    } else if (draw < mix_.insert + mix_.update + mix_.del) {
      op.kind = OpKind::kDelete;
      BaseKey(&op);
    } else if (mix_.absent > 0.0 && unif_(rng_) < mix_.absent) {
      GapKey(&op);
    } else {
      BaseKey(&op);
    }
    return op;
  }

 private:
  void BaseKey(Op* op) {
    const size_t i = zipf_ ? zipf_->Next(rng_) : rng_() % keys_.size();
    op->key = keys_[i];
    op->in_base = true;
  }

  // AbsentKey falls back to a present key when it finds no gap, so the
  // membership bit is looked up rather than assumed.
  void GapKey(Op* op) {
    op->key = workloads::detail::AbsentKey(keys_, rng_);
    op->in_base = std::binary_search(keys_.begin(), keys_.end(), op->key);
  }

  const std::vector<Key>& keys_;
  OpMix mix_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unif_{0.0, 1.0};
  std::optional<workloads::detail::ZipfianRanks> zipf_;
};

// Oracle for read-only streams: the loaded dataset itself. A key drawn
// from it answers its payload, a key from a gap answers absent.
struct DatasetOracle {
  uint64_t Apply(const Op& op, uint64_t /*seq*/) const {
    return op.in_base ? PayloadOf(op.key) : kAbsent;
  }
};

// Oracle for mutating streams: a std::unordered_map replaying the same ops
// in stream order, answer by answer.
class MapOracle {
 public:
  explicit MapOracle(const std::vector<Key>& keys) {
    live_.reserve(keys.size() + keys.size() / 2);
    for (const Key k : keys) live_.emplace(k, PayloadOf(k));
  }

  uint64_t Apply(const Op& op, uint64_t seq) {
    switch (op.kind) {
      case OpKind::kLookup: {
        const auto it = live_.find(op.key);
        return it == live_.end() ? kAbsent : it->second;
      }
      case OpKind::kInsert:
        return live_.emplace(op.key, PayloadOf(op.key)).second ? 1 : 0;
      case OpKind::kUpdate: {
        const auto it = live_.find(op.key);
        if (it == live_.end()) return 0;
        it->second = UpdatedPayload(op.key, seq);
        return 1;
      }
      case OpKind::kDelete:
        return live_.erase(op.key);
    }
    return kAbsent;
  }

 private:
  std::unordered_map<Key, uint64_t> live_;
};

// One op against an engine, encoded like the oracles' answers.
template <typename Index>
inline uint64_t Execute(Index& index, const Op& op, uint64_t seq) {
  switch (op.kind) {
    case OpKind::kLookup: {
      const auto r = index.Lookup(op.key);
      return r ? *r : kAbsent;
    }
    case OpKind::kInsert:
      return index.Insert(op.key, PayloadOf(op.key)) ? 1 : 0;
    case OpKind::kUpdate:
      return index.Update(op.key, UpdatedPayload(op.key, seq)) ? 1 : 0;
    case OpKind::kDelete:
      return index.Delete(op.key) ? 1 : 0;
  }
  return kAbsent;
}

// Nearest-rank percentile of `v` (reorders it). `p` in (0, 1].
inline uint64_t Percentile(std::span<uint32_t> v, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Latency samples folded per window: exact p50/p90/p99 of each window, plus
// a whole-run log histogram for the diagnostics (p99, p999, sample count).
class LatencyWindows {
 public:
  // Reorders `samples` (nanoseconds).
  void Add(std::span<uint32_t> samples) {
    if (samples.empty()) return;
    for (const uint32_t v : samples) {
      ++whole_.counts[telemetry::hdr::BucketIndex(v)];
    }
    whole_.total += samples.size();
    p50_.push_back(static_cast<double>(Percentile(samples, 0.50)));
    p90_.push_back(static_cast<double>(Percentile(samples, 0.90)));
    p99_.push_back(static_cast<double>(Percentile(samples, 0.99)));
  }

  size_t windows() const { return p50_.size(); }
  uint64_t samples() const { return whole_.total; }
  double p50_us() const { return Median(p50_) / 1e3; }
  double p90_us() const { return Median(p90_) / 1e3; }
  double p99_us() const { return Median(p99_) / 1e3; }
  // How much the windows' p50s moved within this run: (max - min) / median.
  double p50_window_range() const {
    if (p50_.empty()) return 0.0;
    const auto [lo, hi] = std::minmax_element(p50_.begin(), p50_.end());
    return (*hi - *lo) / Median(p50_);
  }
  double whole_us(double pct) const {
    return static_cast<double>(whole_.PercentileNs(pct)) / 1e3;
  }

 private:
  std::vector<double> p50_;
  std::vector<double> p90_;
  std::vector<double> p99_;
  telemetry::HistogramSnapshot whole_{
      std::vector<uint64_t>(telemetry::hdr::kNumBuckets, 0), 0};
};

// Closed loop, one client: the next op starts when the previous one
// returns, with one clock read per op (op i's latency is t[i+1] - t[i]).
// The stream is consumed in chunks of at most one window; each chunk's ops
// and answer log are preallocated before its clock starts, and its answers
// are checked against the oracle after the clock stops.
template <typename Index, typename Oracle>
class ClosedLoop {
 public:
  struct Timed {
    uint64_t ops = 0;
    uint64_t ns = 0;          // wall time of the timed loops
    uint64_t latency_ns = 0;  // sum of per-op latencies
  };

  ClosedLoop(Index& index, OpStream& stream, Oracle& oracle, size_t capacity)
      : index_(index),
        stream_(stream),
        oracle_(oracle),
        ops_(capacity),
        answers_(capacity),
        latency_(capacity) {}

  // Runs chunks until `seconds` of timed loop have passed. `windows` may
  // be null (warm-up).
  Timed Run(double seconds, LatencyWindows* windows) {
    Timed t;
    const uint64_t budget =
        std::max<uint64_t>(1, static_cast<uint64_t>(seconds * 1e9));
    while (t.ns < budget) {
      Chunk(std::min(kWindowNs, budget - t.ns), windows, &t);
    }
    return t;
  }

  // Calls `at` once, between chunks, when the stream has executed exactly
  // `seq` ops: chunks stop there. A mutating workload's state after a
  // timed window depends on how many ops the window managed; its state at
  // a fixed stream position does not.
  void SetCheckpoint(uint64_t seq, std::function<void()> at) {
    checkpoint_ = seq;
    at_checkpoint_ = std::move(at);
  }

  // Runs the stream on, untimed and still checked, up to the checkpoint.
  void ReachCheckpoint() {
    Timed t;
    while (at_checkpoint_) Chunk(kWindowNs, nullptr, &t);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t wrong() const { return wrong_; }
  // The ops queued next: a sample of this workload's keys for the probes.
  std::span<const Op> pending() const { return {ops_.data(), filled_}; }

 private:
  // One chunk: at most `limit_ns` of timed loop, then the checks.
  void Chunk(uint64_t limit_ns, LatencyWindows* windows, Timed* t) {
    const size_t cap = ops_.size();
    for (; filled_ < cap; ++filled_) ops_[filled_] = stream_.Next();
    const size_t max_n =
        at_checkpoint_ ? std::min<uint64_t>(cap, checkpoint_ - seq_) : cap;
    size_t n = 0;
    const uint64_t start = NowNs();
    uint64_t prev = start;
    while (n < max_n) {
      answers_[n] = Execute(index_, ops_[n], seq_ + n);
      const uint64_t now = NowNs();
      latency_[n] =
          static_cast<uint32_t>(std::min<uint64_t>(now - prev, UINT32_MAX));
      prev = now;
      ++n;
      if (now - start >= limit_ns) break;
    }
    t->ns += prev - start;
    t->ops += n;
    for (size_t i = 0; i < n; ++i) t->latency_ns += latency_[i];
    if (windows != nullptr) windows->Add({latency_.data(), n});
    for (size_t i = 0; i < n; ++i) {
      if (answers_[i] != oracle_.Apply(ops_[i], seq_ + i)) ++wrong_;
    }
    attempted_ += n;
    std::move(ops_.begin() + n, ops_.end(), ops_.begin());
    filled_ = cap - n;
    seq_ += n;
    if (at_checkpoint_ && seq_ == checkpoint_) {
      at_checkpoint_();
      at_checkpoint_ = nullptr;
    }
  }

  Index& index_;
  OpStream& stream_;
  Oracle& oracle_;
  std::vector<Op> ops_;
  std::vector<uint64_t> answers_;
  std::vector<uint32_t> latency_;
  size_t filled_ = 0;
  uint64_t seq_ = 0;
  uint64_t checkpoint_ = 0;
  std::function<void()> at_checkpoint_;
  uint64_t attempted_ = 0;
  uint64_t wrong_ = 0;
};

// Sum of a histogram's samples, taking each bucket at its midpoint (the
// histogram's own MeanNs uses bucket tops, which biases sums up by ~3%).
inline double SumNs(const telemetry::HistogramSnapshot& h) {
  double sum = 0.0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    const double hi = static_cast<double>(telemetry::hdr::BucketUpper(i));
    const double lo =
        i == 0 ? 0.0
               : static_cast<double>(telemetry::hdr::BucketUpper(i - 1) + 1);
    sum += static_cast<double>(h.counts[i]) * 0.5 * (lo + hi);
  }
  return sum;
}

inline double PhaseNs(const telemetry::RegistrySnapshot& d,
                      telemetry::Engine e, telemetry::Phase p) {
  return SumNs(d.phase(e, p).latency);
}

// Median of `rounds` timings of `fn`, in nanoseconds per `items`.
template <typename Fn>
double MedianNsPer(size_t items, int rounds, Fn fn) {
  std::vector<double> per;
  for (int r = 0; r < rounds; ++r) {
    const uint64_t t0 = NowNs();
    fn();
    per.push_back(static_cast<double>(NowNs() - t0) /
                  static_cast<double>(std::max<size_t>(1, items)));
  }
  return Median(per);
}

// Router probe: a two-shard router over this dataset (the serving
// workload's shape), timed over this workload's own op keys.
inline double RouteProbeNs(const std::vector<Key>& dataset,
                           std::span<const Op> ops) {
  using Router = server::ShardRouter<Key>;
  const Router router = Router::Create(Router::Partition(dataset, 2));
  return MedianNsPer(ops.size(), 5, [&] {
    uint64_t acc = 0;
    for (const Op& op : ops) acc += router.ShardOf(op.key);
    SinkValue(acc);
  });
}

// Page-verification probe: leaf pages laid out exactly as the index file
// lays them out, filled from this dataset, sealed, then verified.
inline double VerifyProbeNsPerPage(const std::vector<Key>& dataset) {
  using storage::LeafEntry;
  constexpr size_t kPages = 256;
  const size_t page_bytes = storage::kDefaultPageBytes;
  const size_t cap = storage::LeafCapacity<Key>(page_bytes);
  std::vector<std::byte> pages(kPages * page_bytes, std::byte{0});
  for (size_t p = 0; p < kPages; ++p) {
    std::byte* page = pages.data() + p * page_bytes;
    size_t count = 0;
    for (; count < cap; ++count) {
      const size_t r = (p * cap + count) % dataset.size();
      storage::StoreAs(page + storage::kPageHeaderBytes +
                           count * sizeof(LeafEntry<Key>),
                       LeafEntry<Key>{dataset[r], PayloadOf(dataset[r])});
    }
    storage::SealPage(page, page_bytes, storage::PageType::kLeaf,
                      static_cast<uint32_t>(p), static_cast<uint32_t>(count));
  }
  constexpr int kSweeps = 8;
  return MedianNsPer(kPages * kSweeps, 5, [&] {
    uint64_t ok = 0;
    for (int s = 0; s < kSweeps; ++s) {
      for (size_t p = 0; p < kPages; ++p) {
        ok += storage::VerifyPage(pages.data() + p * page_bytes, page_bytes,
                                  storage::PageType::kLeaf,
                                  static_cast<uint32_t>(p));
      }
    }
    SinkValue(ok);
  });
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// What one run reports: answer counts, named metrics with their units, and
// diagnostics.
struct Result {
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };

  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t incomplete = 0;  // open loop: not answered by the drain deadline
  uint64_t io_errors = 0;
  std::vector<Value> metrics;
  std::vector<Value> diagnostics;

  uint64_t failed() const { return wrong + incomplete + io_errors; }
  void Metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Diag(std::string name, double value, std::string unit = "") {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
};

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace fitree::e2e

#endif  // FITREE_BENCH_E2E_E2E_H_
