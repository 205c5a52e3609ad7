// Consolidated process-wide configuration. Every FITREE_* environment knob
// that tunes engine or server behavior is resolved HERE, exactly once, into
// one immutable fitree::Options value (GlobalOptions()). Engine and server
// config structs default their fields from it; nothing outside this header
// (and the test-only override hooks in telemetry) reads those variables ad
// hoc anymore, so a knob's default, parse rule, and clamp live in a single
// place.
//
// Knobs resolved here:
//   FITREE_TELEM_SAMPLE   latency sampling period, >= 1         (64)
//   FITREE_TRACE          0 | 1 trace-ring capture              (0)
//   FITREE_TRACE_RING     per-thread trace ring slots, >= 16    (4096)
//   FITREE_SHARDS         server shard count, >= 1              (4)
//   FITREE_BATCH          server per-shard drain batch, >= 1    (32)
//   FITREE_IO_BACKEND     auto | threads                        (auto)
//   FITREE_IO_DIRECT      0 | 1 attempt O_DIRECT reads          (0)
//
// FITREE_PERF is the one exception: telemetry/perf_counters.cc reads it
// live at every PerfRegion so it can be flipped at runtime. Bench-harness
// knobs (FITREE_BENCH_*) stay in bench/ — they size workloads, not the
// engines.

#ifndef FITREE_COMMON_OPTIONS_H_
#define FITREE_COMMON_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/env.h"

namespace fitree {

// How the storage layer executes a batch of page reads
// (storage/async_io.h): kAuto probes io_uring once and falls back to a
// pread thread pool when the kernel refuses it; kThreads forces the pool.
enum class IoBackend : uint8_t { kAuto, kThreads };

inline std::optional<IoBackend> ParseIoBackend(std::string_view s) {
  if (s == "auto") return IoBackend::kAuto;
  if (s == "threads") return IoBackend::kThreads;
  return std::nullopt;
}

struct Options {
  uint64_t telemetry_sample = 64;  // 1-in-N latency sampling
  bool trace = false;              // trace-ring capture on/off
  size_t trace_ring = 4096;        // per-thread ring capacity (slots)
  size_t shards = 4;               // server: shard / worker-thread count
  size_t batch = 32;               // server: max ops drained per batch
  IoBackend io_backend = IoBackend::kAuto;  // batched page-read backend
  bool io_direct = false;          // attempt O_DIRECT page reads

  // Reads every knob from the environment, applying defaults and clamps.
  static Options FromEnvironment() {
    Options o;
    const int64_t sample = GetEnvInt64("FITREE_TELEM_SAMPLE", 64);
    o.telemetry_sample = sample < 1 ? 1u : static_cast<uint64_t>(sample);
    o.trace = GetEnvInt64("FITREE_TRACE", 0) != 0;
    const int64_t ring = GetEnvInt64("FITREE_TRACE_RING", 4096);
    o.trace_ring = ring < 16 ? 16u : static_cast<size_t>(ring);
    const int64_t shards = GetEnvInt64("FITREE_SHARDS", 4);
    o.shards = shards < 1 ? 1u : static_cast<size_t>(shards);
    const int64_t batch = GetEnvInt64("FITREE_BATCH", 32);
    o.batch = batch < 1 ? 1u : static_cast<size_t>(batch);
    o.io_backend = ParseIoBackend(GetEnvString("FITREE_IO_BACKEND", "auto"))
                       .value_or(IoBackend::kAuto);
    o.io_direct = GetEnvInt64("FITREE_IO_DIRECT", 0) != 0;
    return o;
  }
};

// The process-wide Options, resolved from the environment on first use and
// immutable afterwards. Config structs capture its fields as defaults at
// construction time, so per-instance overrides still work as before.
inline const Options& GlobalOptions() {
  static const Options options = Options::FromEnvironment();
  return options;
}

}  // namespace fitree

#endif  // FITREE_COMMON_OPTIONS_H_
