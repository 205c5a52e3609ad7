// Consolidated process-wide configuration. Every FITREE_* environment knob
// that tunes engine behavior is resolved HERE, exactly once, into one
// immutable fitree::Options value (GlobalOptions()). Its readers take each
// field from it directly, so a knob's default, parse rule, and clamp live
// in a single place.
//
// The one knob resolved here, with the caller that sets it:
//   FITREE_IO_DIRECT      0 | 1 attempt O_DIRECT reads          (0)
//                         CI's O_DIRECT disk leg
//
// Everything else is a constant the code picks for itself: the latency
// sampling period is 64 (telemetry_sample; bench/e2e reads it to restore the
// period after a traced window, tests change it with
// telemetry::SetSamplePeriodForTest); the server's shard count and drain
// batch are ShardedIndex::Config defaults. Bench-harness knobs
// (FITREE_BENCH_*) stay in bench/ — they size workloads, not the engines.

#ifndef FITREE_COMMON_OPTIONS_H_
#define FITREE_COMMON_OPTIONS_H_

#include <cstdint>

#include "common/env.h"

namespace fitree {

struct Options {
  uint64_t telemetry_sample = 64;  // 1-in-N latency sampling
  bool io_direct = false;          // attempt O_DIRECT page reads

  // Reads the environment knobs; other fields keep their defaults.
  static Options FromEnvironment() {
    Options o;
    o.io_direct = GetEnvInt64("FITREE_IO_DIRECT", 0) != 0;
    return o;
  }
};

// The process-wide Options, resolved from the environment on first use and
// immutable afterwards.
inline const Options& GlobalOptions() {
  static const Options options = Options::FromEnvironment();
  return options;
}

}  // namespace fitree

#endif  // FITREE_COMMON_OPTIONS_H_
