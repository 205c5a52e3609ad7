// Per-phase span attribution: where inside an operation a nanosecond went.
//
// The paper's lookup cost is a sum of distinct stages — directory descent,
// bounded window search within the error range, buffer/delta probe, and
// (on disk) page I/O. Phase is the closed vocabulary of those stages and
// ScopedPhase is a nestable RAII span the engines drop around each one,
// feeding a per-(engine, phase) count + latency-histogram grid in the
// registry.
//
// Cost model: phases piggyback on the op sampling countdown. A ScopedOp
// that wins the 1-in-SamplePeriod() draw (or a ScopedDuration, which
// always times) marks the thread "phase timing active"; every ScopedPhase
// inside that op then counts and times itself, and every ScopedPhase
// outside one is a single thread-local load + branch (measured in
// EXPERIMENTS.md "Profiling"). Phase counts are therefore *sample* counts
// — the same population the op latency histograms describe — not exact
// call counts; that is what keeps 3-4 spans per op inside the +10-20
// ns/op instrumentation envelope.
//
// Nesting: spans form a stack per thread, and a span records its SELF
// time — wall time minus enclosed child spans — so the phases of one op
// sum to (at most) the op's own latency and a flame view of the grid is
// additive. The disk engine's window search, for example, records compute
// time only, while the page faults it triggers land under page_io.
//
// Limit of the split: a prefetch's latency is charged to whichever span
// closes after it, not to the phase that later reads the line, presumably
// because the closing steady_clock read waits for loads still in flight.
// A scratch build that put a kDirectoryDescent span around
// FitingTree::PrefetchPredicted raised bench/e2e's traced
// core.directory_descent_ns on lookup_mem from ~180 to 420-580 ns, while
// the untraced lookup was unchanged. Read the core.*_ns split as "where
// the clock stalled", and compare it only between builds that issue the
// same prefetches at the same places.

#ifndef FITREE_TELEMETRY_PHASE_H_
#define FITREE_TELEMETRY_PHASE_H_

#include <cstddef>
#include <cstdint>

#include "telemetry/metrics.h"

namespace fitree::telemetry {

// The cost stages the engines distinguish: the per-op hot-path stages in
// execution order, then the rare structural/background ones.
enum class Phase : uint8_t {
  kDirectoryDescent,  // segment directory walk (flat interpolation or B+)
  kWindowSearch,      // bounded search inside the model's error window
  kBufferProbe,       // per-segment insert-buffer probe (buffered/concurrent)
  kDeltaProbe,        // disk engine's in-memory delta-overlay probe
  kPageIo,            // buffer-pool miss: read + verify one page
  kPageIoBatch,       // never recorded; kept while bench/e2e sums it (0)
  kMergeResegment,    // buffer merge + shrinking-cone resegmentation
  kCompact,           // disk base-file rewrite absorbing the delta
  kEpochReclaim,      // epoch-based reclamation sweep
  // Server request-path stages (server/sharded_index.h). These are
  // recorded cross-thread — routing on the client, wait/exec on the shard
  // worker — so the server records them straight into the phase grid for
  // sampled requests instead of using thread-local ScopedPhase nesting.
  kShardRoute,        // shard-boundary floor lookup on the client thread
  kShardQueueWait,    // enqueue-to-dequeue time in the shard's op queue
  kShardExec,         // engine call on the shard worker (probe + publish)
};
inline constexpr size_t kNumPhases = 12;

inline constexpr const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kDirectoryDescent: return "directory_descent";
    case Phase::kWindowSearch: return "window_search";
    case Phase::kBufferProbe: return "buffer_probe";
    case Phase::kDeltaProbe: return "delta_probe";
    case Phase::kPageIo: return "page_io";
    case Phase::kPageIoBatch: return "page_io_batch";
    case Phase::kMergeResegment: return "merge_resegment";
    case Phase::kCompact: return "compact";
    case Phase::kEpochReclaim: return "epoch_reclaim";
    case Phase::kShardRoute: return "shard_route";
    case Phase::kShardQueueWait: return "shard_queue_wait";
    case Phase::kShardExec: return "shard_exec";
  }
  return "?";
}

class ScopedPhase;

namespace detail {

// Per-thread phase state. `timing` is armed by a ScopedOp that sampled
// (or by a ScopedDuration, which always times). Trivial + constinit keeps
// the TLS access direct — no __tls_init wrapper on the fast path (same
// reasoning as ThreadSlot() in metrics.h).
struct PhaseContext {
  ScopedPhase* innermost = nullptr;
  bool timing = false;
};
inline constinit thread_local PhaseContext g_phase_ctx;

// Cold path (runs 1-in-SamplePeriod() ops per span): folds one
// finished span into the registry's phase grid. Defined in telemetry.cc.
void RecordPhaseSample(Engine engine, Phase phase, uint64_t self_ns);

}  // namespace detail

// Nestable span covering one phase of the currently executing op. Armed
// only while the enclosing op is being timed (see file comment); an
// unarmed span costs one thread-local load + branch in the constructor
// and a dead-store test in the destructor.
class ScopedPhase {
 public:
  ScopedPhase(Engine e, Phase p) {
    detail::PhaseContext& ctx = detail::g_phase_ctx;
    if (!ctx.timing) return;
    engine_ = e;
    phase_ = p;
    parent_ = ctx.innermost;
    ctx.innermost = this;
    start_ns_ = NowNs();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (start_ns_ == 0) return;
    const uint64_t inclusive = NowNs() - start_ns_;
    detail::PhaseContext& ctx = detail::g_phase_ctx;
    ctx.innermost = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += inclusive;
    const uint64_t self = inclusive > child_ns_ ? inclusive - child_ns_ : 0;
    detail::RecordPhaseSample(engine_, phase_, self);
  }

 private:
  ScopedPhase* parent_ = nullptr;
  uint64_t start_ns_ = 0;  // 0 == span not armed
  uint64_t child_ns_ = 0;  // inclusive time of direct children
  Engine engine_{};
  Phase phase_{};
};

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_PHASE_H_
