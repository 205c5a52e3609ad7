// Process-wide telemetry registry and the instrumentation helpers the
// engines call.
//
// One process-wide Registry (a constinit global behind Registry::Get)
// owns a [engine][op] grid of sharded Counters and latency histograms plus
// the named counters/gauges from metrics.h. Engines never talk to the
// registry directly — they use the helpers at the bottom of this file
// (CountOp / ScopedOp / ScopedDuration / CounterAdd / GaugeAdd).
//
// Cost model (measured in EXPERIMENTS.md "Telemetry"):
//   - op *counts* are exact: every call does one sharded relaxed
//     fetch_add (~1-3 ns, no cross-thread line sharing),
//   - op *latencies* are sampled: a thread_local countdown fires the
//     clock + histogram record once per SamplePeriod() calls
//     (default 64), amortizing two steady_clock reads to well under a
//     nanosecond per op,
//   - merges and compactions (rare, long) are always timed via
//     ScopedDuration.

#ifndef FITREE_TELEMETRY_REGISTRY_H_
#define FITREE_TELEMETRY_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "telemetry/histogram.h"
#include "telemetry/metrics.h"
#include "telemetry/phase.h"

namespace fitree::telemetry {

// Value-type snapshot of the whole registry: mergeable with DeltaSince for
// interval measurements (the bench harness snapshots before/after a rep).
struct RegistrySnapshot {
  struct OpSnapshot {
    uint64_t count = 0;
    HistogramSnapshot latency;
  };

  OpSnapshot ops[kNumEngines][kNumOps];
  // Phase cells reuse OpSnapshot: `count` is the number of *sampled* spans
  // (phases ride the op sampling countdown, see phase.h), `latency` holds
  // their self times.
  OpSnapshot phases[kNumEngines][kNumPhases];
  uint64_t counters[kNumCounters] = {};
  int64_t gauges[kNumGauges] = {};

  const OpSnapshot& op(Engine e, Op o) const {
    return ops[static_cast<size_t>(e)][static_cast<size_t>(o)];
  }
  const OpSnapshot& phase(Engine e, Phase p) const {
    return phases[static_cast<size_t>(e)][static_cast<size_t>(p)];
  }
  uint64_t counter(CounterId id) const {
    return counters[static_cast<size_t>(id)];
  }
  int64_t gauge(GaugeId id) const { return gauges[static_cast<size_t>(id)]; }

  // This snapshot minus an earlier one. Counters and histogram buckets are
  // monotone so the difference is an exact interval measurement; gauges
  // are levels, and the delta keeps the *later* level (the meaningful
  // "where did it end up" number for an interval report).
  RegistrySnapshot DeltaSince(const RegistrySnapshot& before) const {
    RegistrySnapshot d;
    for (size_t e = 0; e < kNumEngines; ++e) {
      for (size_t o = 0; o < kNumOps; ++o) {
        d.ops[e][o].count = ops[e][o].count - before.ops[e][o].count;
        d.ops[e][o].latency =
            ops[e][o].latency.DeltaSince(before.ops[e][o].latency);
      }
      for (size_t p = 0; p < kNumPhases; ++p) {
        d.phases[e][p].count = phases[e][p].count - before.phases[e][p].count;
        d.phases[e][p].latency =
            phases[e][p].latency.DeltaSince(before.phases[e][p].latency);
      }
    }
    for (size_t i = 0; i < kNumCounters; ++i) {
      d.counters[i] = counters[i] - before.counters[i];
    }
    for (size_t i = 0; i < kNumGauges; ++i) d.gauges[i] = gauges[i];
    return d;
  }
};

// The live registry. ~500 KB of atomics (the 28 op + 32 phase histograms
// dominate); exactly one process-wide instance behind Get(), but the type
// is constructible so tests can exercise isolated instances.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide instance: a constinit inline global (defined right
  // below the class), so Get() compiles to a direct address — no
  // initialization guard, no out-of-line call to act as an inlining
  // barrier inside instrumented hot loops. The registry is trivially
  // destructible (all-atomic state), so instrumentation during static
  // destruction stays safe without leaking a heap object.
  static Registry& Get();

  Counter& op_count(Engine e, Op o) {
    return op_counts_[static_cast<size_t>(e)][static_cast<size_t>(o)];
  }
  LatencyHistogram& op_latency(Engine e, Op o) {
    return op_latencies_[static_cast<size_t>(e)][static_cast<size_t>(o)];
  }
  Counter& phase_count(Engine e, Phase p) {
    return phase_counts_[static_cast<size_t>(e)][static_cast<size_t>(p)];
  }
  LatencyHistogram& phase_latency(Engine e, Phase p) {
    return phase_latencies_[static_cast<size_t>(e)][static_cast<size_t>(p)];
  }
  Counter& counter(CounterId id) {
    return counters_[static_cast<size_t>(id)];
  }
  Gauge& gauge(GaugeId id) { return gauges_[static_cast<size_t>(id)]; }

  RegistrySnapshot Snapshot() const {
    RegistrySnapshot snap;
    for (size_t e = 0; e < kNumEngines; ++e) {
      for (size_t o = 0; o < kNumOps; ++o) {
        snap.ops[e][o].count = op_counts_[e][o].Load();
        snap.ops[e][o].latency = op_latencies_[e][o].Snapshot();
      }
      for (size_t p = 0; p < kNumPhases; ++p) {
        snap.phases[e][p].count = phase_counts_[e][p].Load();
        snap.phases[e][p].latency = phase_latencies_[e][p].Snapshot();
      }
    }
    for (size_t i = 0; i < kNumCounters; ++i) {
      snap.counters[i] = counters_[i].Load();
    }
    for (size_t i = 0; i < kNumGauges; ++i) snap.gauges[i] = gauges_[i].Load();
    return snap;
  }

 private:
  Counter op_counts_[kNumEngines][kNumOps];
  LatencyHistogram op_latencies_[kNumEngines][kNumOps];
  Counter phase_counts_[kNumEngines][kNumPhases];
  LatencyHistogram phase_latencies_[kNumEngines][kNumPhases];
  Counter counters_[kNumCounters];
  Gauge gauges_[kNumGauges];
};

static_assert(std::is_trivially_destructible_v<Registry>,
              "instrumentation may run during static destruction");

namespace detail {
// ~500 KB of zero-initialized atomics in .bss.
inline constinit Registry g_registry;
}  // namespace detail

inline Registry& Registry::Get() { return detail::g_registry; }

// Exact call count for (engine, op) — the per-op hot-path cost.
inline void CountOp(Engine e, Op o, uint64_t n = 1) {
  Registry::Get().op_count(e, o).Add(n);
}

inline void CounterAdd(CounterId id, uint64_t n = 1) {
  Registry::Get().counter(id).Add(n);
}

inline void GaugeAdd(GaugeId id, int64_t delta) {
  Registry::Get().gauge(id).Add(delta);
}

// Records an already-measured duration into the (engine, op) histogram.
inline void RecordDuration(Engine e, Op o, uint64_t ns) {
  Registry::Get().op_latency(e, o).Record(ns);
}

// Latency sample period (Options::telemetry_sample, 64, unless a test sets
// another; cached at first use). Defined in telemetry.cc.
uint64_t SamplePeriod();
// Test hook: forces the period (1 == time every op) for deterministic
// histogram population. Affects threads' countdowns lazily.
void SetSamplePeriodForTest(uint64_t period);

namespace detail {
// Per-thread countdown to the next latency sample. Starting at 1 makes a
// thread's first op sampled, so short tests see nonempty histograms.
inline bool ShouldSample() {
  thread_local uint64_t countdown = 1;
  if (--countdown == 0) {
    countdown = SamplePeriod();
    return true;
  }
  return false;
}
}  // namespace detail

// Counts one (engine, op) call always; on sampled calls also times it into
// the latency histogram and arms phase spans (phase.h) for the op's
// duration.
class ScopedOp {
 public:
  ScopedOp(Engine e, Op o) : engine_(e), op_(o) {
    CountOp(e, o);
    if (detail::ShouldSample()) {
      detail::PhaseContext& ctx = detail::g_phase_ctx;
      saved_ctx_ = ctx;
      ctx.timing = true;
      start_ns_ = NowNs();
    }
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  ~ScopedOp() {
    if (start_ns_ == 0) return;
    const uint64_t elapsed = NowNs() - start_ns_;
    // Interior spans are balanced by scoping, so restoring the saved
    // context also restores the enclosing op's innermost-span pointer
    // (nested-op case: an op issued from inside another sampled op).
    detail::g_phase_ctx = saved_ctx_;
    RecordDuration(engine_, op_, elapsed);
  }

 private:
  Engine engine_;
  Op op_;
  uint64_t start_ns_ = 0;  // 0 == not sampled
  detail::PhaseContext saved_ctx_;
};

// Always-timed scope for rare structural work (merge, compact): counts and
// times every call. Cancel() for early-out paths that shouldn't count as
// the event having happened (e.g. a merge finding its segment already
// retired).
class ScopedDuration {
 public:
  ScopedDuration(Engine e, Op o)
      : engine_(e), op_(o) {
    detail::PhaseContext& ctx = detail::g_phase_ctx;
    saved_ctx_ = ctx;
    ctx.timing = true;  // structural work always gets phase attribution
    start_ns_ = NowNs();
  }

  ScopedDuration(const ScopedDuration&) = delete;
  ScopedDuration& operator=(const ScopedDuration&) = delete;

  void Cancel() { cancelled_ = true; }

  // Nanoseconds since construction (for callers that also want the value).
  uint64_t ElapsedNs() const { return NowNs() - start_ns_; }

  ~ScopedDuration() {
    detail::g_phase_ctx = saved_ctx_;
    if (cancelled_) return;
    const uint64_t elapsed = NowNs() - start_ns_;
    CountOp(engine_, op_);
    RecordDuration(engine_, op_, elapsed);
  }

 private:
  Engine engine_;
  Op op_;
  uint64_t start_ns_;
  bool cancelled_ = false;
  detail::PhaseContext saved_ctx_;
};

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_REGISTRY_H_
