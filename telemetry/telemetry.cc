// Single-definition home for the telemetry cold paths: the cached
// sample-period knob and the trace-ring global state (following the
// common/sink.cc precedent for out-of-line definitions in this
// header-only library). The Registry singleton itself is a constinit
// inline global in registry.h so hot-path instrumentation inlines fully.

#include "telemetry/registry.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/options.h"
#include "telemetry/trace.h"

namespace fitree::telemetry {

#ifndef FITREE_NO_TELEMETRY

namespace {

std::atomic<uint64_t> g_sample_period{0};  // 0 == not yet initialised

}  // namespace

uint64_t SamplePeriod() {
  uint64_t p = g_sample_period.load(std::memory_order_relaxed);
  if (p == 0) {
    p = GlobalOptions().telemetry_sample;  // 64
    g_sample_period.store(p, std::memory_order_relaxed);
  }
  return p;
}

void SetSamplePeriodForTest(uint64_t period) {
  g_sample_period.store(std::max<uint64_t>(period, 1),
                        std::memory_order_relaxed);
}

namespace detail {

// Out-of-line on purpose: this runs once per sampled span (1-in-N ops per
// phase), so the call costs nothing at op granularity and keeps the
// ScopedPhase destructor small enough to inline.
void RecordPhaseSample(Engine engine, Phase phase, Op op, uint64_t self_ns) {
  Registry& reg = Registry::Get();
  reg.phase_count(engine, phase).Add(1);
  reg.phase_latency(engine, phase).Record(self_ns);
  trace::EmitPhase(engine, op, phase, self_ns);
}

}  // namespace detail

namespace trace {
namespace {

// All trace state hangs off one leaked struct so thread-exit during static
// destruction can't touch a destroyed mutex.
struct TraceState {
  std::mutex mu;
  bool enabled = false;
  size_t ring_capacity = 4096;
  uint32_t next_tid = 0;
  // Rings are owned here (not by the threads) so records survive thread
  // exit and CollectTrace can walk them all.
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::atomic<uint64_t> config_epoch{1};
};

TraceState& State() {
  static TraceState* state = [] {
    auto* s = new TraceState();
    s->enabled = GlobalOptions().trace;  // FITREE_TRACE
    return s;
  }();
  return *state;
}

// Cached fast-path view of "is tracing on". Reloaded per-thread when the
// config epoch moves (ConfigOverride).
struct ThreadTraceView {
  uint64_t epoch = 0;
  bool enabled = false;
  TraceRing* ring = nullptr;
};

TraceRing* RegisterRing() {
  TraceState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.rings.push_back(
      std::make_unique<TraceRing>(s.ring_capacity, s.next_tid++));
  return s.rings.back().get();
}

ThreadTraceView& View() {
  thread_local ThreadTraceView view;
  TraceState& s = State();
  const uint64_t epoch = s.config_epoch.load(std::memory_order_acquire);
  if (view.epoch != epoch) {
    view.epoch = epoch;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      view.enabled = s.enabled;
    }
    view.ring = nullptr;  // re-register against the current ring list
  }
  return view;
}

}  // namespace

bool Enabled() { return View().enabled; }

void Emit(Engine engine, Op op, uint64_t arg) {
  ThreadTraceView& view = View();
  if (!view.enabled) return;
  if (view.ring == nullptr) view.ring = RegisterRing();
  view.ring->Emit(engine, op, NowNs(), arg);
}

void EmitPhase(Engine engine, Op op, Phase phase, uint64_t arg) {
  ThreadTraceView& view = View();
  if (!view.enabled) return;
  if (view.ring == nullptr) view.ring = RegisterRing();
  view.ring->Emit(engine, op, NowNs(), arg,
                  static_cast<uint16_t>(phase) + 1);
}

TraceDump Collect() {
  TraceState& s = State();
  TraceDump dump;
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    dump.enabled = s.enabled;
    for (auto& r : s.rings) rings.push_back(r.get());
  }
  dump.threads = rings.size();
  for (TraceRing* ring : rings) {
    dump.emitted += ring->emitted();
    dump.dropped += ring->dropped();
    auto records = ring->Collect();
    dump.records.insert(dump.records.end(), records.begin(), records.end());
  }
  std::sort(dump.records.begin(), dump.records.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.t_ns < b.t_ns;
            });
  return dump;
}

void ConfigOverride(bool enabled, size_t ring_capacity) {
  TraceState& s = State();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.enabled = enabled;
    s.ring_capacity = ring_capacity == 0 ? 1 : ring_capacity;
    s.rings.clear();
    s.next_tid = 0;
  }
  // Bump after the list is swapped so threads re-resolve their ring.
  s.config_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace trace

#endif  // !FITREE_NO_TELEMETRY

}  // namespace fitree::telemetry
