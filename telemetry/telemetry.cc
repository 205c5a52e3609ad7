// Single-definition home for the telemetry cold paths: the cached
// sample-period knob and the phase-sample fold (following the
// common/sink.cc precedent for out-of-line definitions in this
// header-only library). The Registry itself is a constinit inline global
// in registry.h so hot-path instrumentation inlines fully.

#include "telemetry/registry.h"

#include <algorithm>
#include <atomic>

#include "common/options.h"

namespace fitree::telemetry {

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
void RecordPhaseSample(Engine engine, Phase phase, uint64_t self_ns) {
  Registry& reg = Registry::Get();
  reg.phase_count(engine, phase).Add(1);
  reg.phase_latency(engine, phase).Record(self_ns);
}

}  // namespace detail

}  // namespace fitree::telemetry
