// I/O accounting for the storage/ layer, playing the role memory_cost.h
// plays for the in-memory cost model: the paper charges lookups in pages,
// so disk benches report pages-read/op next to ns/op.
//
// Compat note: the process-wide aggregate of these counters now lives in
// the telemetry registry (telemetry/metrics.h CounterId::kIo*) — every
// BufferPool mirrors its increments there, so one registry snapshot
// carries the cross-instance I/O picture. This struct remains the
// per-pool view (snapshot-and-subtract against a single instance), which
// the registry's process-global counters cannot express.

#ifndef FITREE_COMMON_IO_STATS_H_
#define FITREE_COMMON_IO_STATS_H_

#include <cstdint>

namespace fitree {

// Cumulative counters kept by the buffer pool. Snapshot-and-subtract gives
// per-phase (or per-op, after dividing) figures:
//
//   IoStats before = pool.stats();
//   ... run the measured loop ...
//   IoStats delta = pool.stats() - before;
struct IoStats {
  uint64_t cache_hits = 0;    // page requests served from the pool
  uint64_t cache_misses = 0;  // page requests that went to the source
  uint64_t pages_read = 0;    // physical page reads (<= misses: failed
                              // reads count as a miss but not a read)

  uint64_t accesses() const { return cache_hits + cache_misses; }

  double HitRate() const {
    const uint64_t total = accesses();
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  IoStats operator-(const IoStats& o) const {
    return {cache_hits - o.cache_hits, cache_misses - o.cache_misses,
            pages_read - o.pages_read};
  }

  IoStats& operator+=(const IoStats& o) {
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    pages_read += o.pages_read;
    return *this;
  }

  friend bool operator==(const IoStats&, const IoStats&) = default;
};

}  // namespace fitree

#endif  // FITREE_COMMON_IO_STATS_H_
