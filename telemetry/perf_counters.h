// Hardware performance-counter profiling over Linux perf_event_open(2).
//
// PerfRegion opens a fixed set of per-thread counters — cycles,
// instructions, LLC-load-misses, branch-misses, dTLB-load-misses, and
// task-clock — and Start()/Stop() bracket a measured region, returning the
// scaled counter deltas. The bench harness wraps every experiment cell's
// timed repetitions in one region, so BENCH_results.json carries a PMU
// block (IPC, LLC-miss/op, ...) per cell alongside the wall-clock stats.
//
// Counters are opened with inherit=1 so worker threads spawned inside a
// region (TimedLoopNsPerOpParallel) are counted too. Because the kernel
// rejects PERF_FORMAT_GROUP reads on inherited counters, each event is
// opened as its own leader and read individually; when the kernel
// multiplexes (more events than hardware slots), each read carries its
// own time_enabled/time_running pair and the delta is scaled by
// enabled/running — the standard extrapolation, exact when the workload
// is steady across the region.
//
// Degradation is a first-class path, not an error: containers and locked-
// down kernels refuse the syscall (EACCES/EPERM under perf_event_paranoid
// >= 3, ENOENT/ENODEV for unsupported events, ENOSYS under seccomp). A
// PerfRegion that cannot open its events stays inert and Stop() returns a
// sample whose status says why — the export records it, nothing crashes.

#ifndef FITREE_TELEMETRY_PERF_COUNTERS_H_
#define FITREE_TELEMETRY_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

namespace fitree::telemetry {

// Scaled counter deltas over one Start()/Stop() region. `ok` is true when
// the region actually measured; otherwise `status` carries the reason
// ("unavailable: ...", "not measured").
// Individual counters the kernel refused stay at -1 even when ok.
struct PerfSample {
  std::string status = "not measured";
  bool ok = false;
  double time_enabled_ns = 0;
  double time_running_ns = 0;  // < enabled => the kernel multiplexed
  double cycles = -1;
  double instructions = -1;
  double llc_misses = -1;
  double branch_misses = -1;
  double dtlb_misses = -1;
  double task_clock_ns = -1;
};

// Number of distinct events a PerfRegion tries to open.
inline constexpr int kNumPerfEvents = 6;

// One reusable set of counters: open once, bracket many regions. Not
// thread-safe; the bench harness owns one on the driver thread.
class PerfRegion {
 public:
  PerfRegion();
  ~PerfRegion();
  PerfRegion(const PerfRegion&) = delete;
  PerfRegion& operator=(const PerfRegion&) = delete;

  // True when at least one event opened; status() explains either way.
  bool available() const { return available_; }
  const std::string& status() const { return status_; }

  // Marks the region start (reads a baseline; counters free-run, so no
  // enable/disable ioctls race with inherited per-thread children).
  void Start();

  // Reads the counters again and returns the scaled deltas since Start().
  // Status-only when unavailable or Start() was never called.
  PerfSample Stop();

 private:
  struct Reading {
    uint64_t value = 0;
    uint64_t time_enabled = 0;
    uint64_t time_running = 0;
  };

  bool Read(int event, Reading* out) const;

  int fds_[kNumPerfEvents];
  Reading baseline_[kNumPerfEvents];
  bool available_ = false;
  bool started_ = false;
  std::string status_;
};

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_PERF_COUNTERS_H_
