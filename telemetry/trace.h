// Sampled event-trace ring buffers: fixed-size, per-thread, binary records.
//
// Tracing is off unless the FITREE_TRACE env knob is set (non-zero); when
// on, the sampled op timers in registry.h — and every merge/compaction —
// emit one 24-byte TraceRecord into the calling thread's ring. Rings are
// fixed-capacity (4096 records; ConfigOverride sets another) and wrap,
// keeping the newest records; memory is bounded at threads * capacity * 24
// bytes no matter how long the process runs.
//
// Each ring is written by exactly one thread; a small per-ring mutex
// serializes Emit against CollectTrace (the dump path), which only matters
// while a dump races live traffic. Emits ride the sampled path (1-in-N
// ops), so the uncontended lock never shows up at op granularity — the
// lock-free budget is spent where it pays, on the per-op counters.
//
// Dump-to-JSON lives in the bench harness (runner.cc: TelemetryToJson),
// keeping this header dependency-free; tools/stats_dump.py pretty-prints
// the result.

#ifndef FITREE_TELEMETRY_TRACE_H_
#define FITREE_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/phase.h"

namespace fitree::telemetry {

// One binary trace event. `t_ns` is monotonic nanoseconds since the first
// telemetry use in the process; `arg` is the op latency for sampled ops,
// the duration for merges/compactions, and the self time for phase spans.
// `phase` is 0 for whole-op records, else 1 + the Phase index — the
// formerly reserved pad bytes, so the record stays 24 bytes.
struct TraceRecord {
  uint64_t t_ns = 0;
  uint32_t tid = 0;  // thread registration id (dense, process-local)
  uint8_t engine = 0;
  uint8_t op = 0;
  uint16_t phase = 0;  // 0 == op-level record, else 1 + Phase index
  uint64_t arg = 0;
};
static_assert(sizeof(TraceRecord) == 24, "trace records are packed binary");

// Fixed-capacity wrapping ring of TraceRecords, written by one thread.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity, uint32_t tid)
      : records_(capacity == 0 ? 1 : capacity), tid_(tid) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  uint32_t tid() const { return tid_; }

  void Emit(Engine engine, Op op, uint64_t t_ns, uint64_t arg,
            uint16_t phase = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    TraceRecord& r = records_[next_];
    r.t_ns = t_ns;
    r.tid = tid_;
    r.engine = static_cast<uint8_t>(engine);
    r.op = static_cast<uint8_t>(op);
    r.phase = phase;
    r.arg = arg;
    next_ = (next_ + 1) % records_.size();
    ++emitted_;
  }

  // Records currently held, oldest first.
  std::vector<TraceRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceRecord> out;
    const size_t held = emitted_ < records_.size()
                            ? static_cast<size_t>(emitted_)
                            : records_.size();
    out.reserve(held);
    const size_t start = emitted_ < records_.size() ? 0 : next_;
    for (size_t i = 0; i < held; ++i) {
      out.push_back(records_[(start + i) % records_.size()]);
    }
    return out;
  }

  uint64_t emitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return emitted_;
  }

  // Events overwritten by wraparound (emitted minus held).
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return emitted_ < records_.size() ? 0 : emitted_ - records_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceRecord> records_;
  size_t next_ = 0;
  uint64_t emitted_ = 0;
  uint32_t tid_;
};

// Everything collected from every thread's ring, merged oldest-first.
struct TraceDump {
  bool enabled = false;
  size_t threads = 0;
  uint64_t emitted = 0;
  uint64_t dropped = 0;
  std::vector<TraceRecord> records;  // sorted by t_ns
};

#ifdef FITREE_NO_TELEMETRY

namespace trace {
inline bool Enabled() { return false; }
inline void Emit(Engine, Op, uint64_t) {}
inline void EmitPhase(Engine, Op, Phase, uint64_t) {}
inline TraceDump Collect() { return {}; }
inline void ConfigOverride(bool, size_t) {}
}  // namespace trace

#else  // !FITREE_NO_TELEMETRY

namespace trace {

// True when FITREE_TRACE is set non-zero (cached at first use).
bool Enabled();

// Appends one record to the calling thread's ring (registered lazily on
// first emit). No-op when tracing is disabled.
void Emit(Engine engine, Op op, uint64_t arg);

// Same, tagged with the phase a span covered; `op` is the enclosing op.
void EmitPhase(Engine engine, Op op, Phase phase, uint64_t arg);

// Snapshot of every registered ring, merged and time-sorted.
TraceDump Collect();

// Test/tool hook: overrides the cached FITREE_TRACE value and the ring
// capacity, and drops all previously registered rings. Not thread-safe
// against concurrent Emit — call from quiesced code only.
void ConfigOverride(bool enabled, size_t ring_capacity);

}  // namespace trace

#endif  // FITREE_NO_TELEMETRY

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_TRACE_H_
