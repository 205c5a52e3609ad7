// Software prefetch helpers for the lookup hot path. Once the directory
// has resolved a segment, the model's predicted rank names the lines a
// lookup will probably need, so the engines ask for them together before
// depending on any: the in-memory tree requests the key lines around the
// prediction and the predicted payload line while its buffer probe runs,
// then the payload lines of the search's gallop bracket while the final
// count runs.
// Prefetches are hints — issuing one for a stale or evicted address is
// always safe.

#ifndef FITREE_COMMON_PREFETCH_H_
#define FITREE_COMMON_PREFETCH_H_

#include <cstddef>

namespace fitree {

inline constexpr size_t kCacheLineBytes = 64;

// Read-prefetch the cache line containing `p` into all cache levels.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
  // GCC counts a prefetch as no side effect, so a function that does
  // nothing else (FitingTree::PrefetchPredicted) is pure to it, and it
  // deletes every call, prefetches and all. This empty volatile asm is an
  // effect it must keep; it emits no instruction.
  asm volatile("" : : "r"(p));
#else
  (void)p;
#endif
}

// Read-prefetch every cache line in [p, p + bytes).
inline void PrefetchReadRange(const void* p, size_t bytes) {
  const auto* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += kCacheLineBytes) {
    PrefetchRead(c + off);
  }
  if (bytes > 0) PrefetchRead(c + bytes - 1);
}

}  // namespace fitree

#endif  // FITREE_COMMON_PREFETCH_H_
