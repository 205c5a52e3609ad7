// In-window search strategies for the final error-bounded search step
// (paper Sec 4.1.2: once a segment predicts a position, the key is located
// with a bounded search around it; binary, linear, exponential and SIMD
// variants are compared in ablation_search / micro_search_policy).
//
// Hint semantics: every policy receives `hint`, the model's predicted rank
// clamped into the window by the callee. kBinary ignores it (whole-window
// std::lower_bound); kLinear and kExponential anchor at it — kLinear scans
// outward from the prediction (forward while keys are smaller, else
// backward), kExponential gallops outward doubling the step. Both touch
// O(actual error) keys instead of O(max error), which is the point of
// hint-anchored search.
//
// kSimd is the branchless fast path: the window is first narrowed with a
// conditional-move binary search (no mispredicted branches), then the
// remaining <=128-key run is resolved by counting keys below the probe with
// vector compares — AVX2 on x86-64 (picked at runtime via
// __builtin_cpu_supports, so a baseline -march build still ships the fast
// kernel) and a portable scalar count everywhere else, aarch64 included
// (and under -DFITREE_NO_SIMD / the FITREE_PORTABLE CMake option, which CI
// builds to keep the fallback compiled and tested).

#ifndef FITREE_CORE_SEARCH_POLICY_H_
#define FITREE_CORE_SEARCH_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/prefetch.h"

#if !defined(FITREE_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FITREE_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace fitree {

enum class SearchPolicy {
  kBinary,       // std::lower_bound over the whole window
  kLinear,       // scan outward from the predicted position (hint)
  kExponential,  // gallop outward from the predicted position, then binary
  kSimd,         // gallop from hint, then vector compare-and-popcount
};

inline const char* SearchPolicyName(SearchPolicy policy) {
  switch (policy) {
    case SearchPolicy::kBinary: return "binary";
    case SearchPolicy::kLinear: return "linear";
    case SearchPolicy::kExponential: return "exponential";
    case SearchPolicy::kSimd: return "simd";
  }
  return "?";
}

namespace simd {

// Keys the vector kernels eat per invocation at most: kSimd narrows the
// window down to this many keys branchlessly before counting lanes.
inline constexpr size_t kSimdWindowKeys = 128;

// Order-preserving bias into signed lane space: unsigned keys get their
// sign bit flipped so the signed vector compares sort them correctly.
template <typename K>
constexpr uint64_t Bias64() {
  return std::is_signed_v<K> ? 0ull : (1ull << 63);
}
template <typename K>
constexpr uint32_t Bias32() {
  return std::is_signed_v<K> ? 0u : (1u << 31);
}

#if defined(FITREE_SIMD_AVX2)

inline bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}

// Count of 64-bit keys `< key` among the n keys starting at `data` (8-byte
// stride). Counting is order-independent, so no early exit: one compare +
// movemask + popcount per 4 lanes, tail handled scalar (never reads past
// data + 8n — masked-lane over-reads would trip the ASan differential CI).
__attribute__((target("avx2"))) inline size_t CountLess64Avx2(
    const void* data, size_t n, uint64_t key, uint64_t bias) {
  const auto* p = static_cast<const unsigned char*>(data);
  const __m256i bv = _mm256_set1_epi64x(static_cast<long long>(bias));
  const __m256i kv =
      _mm256_set1_epi64x(static_cast<long long>(key ^ bias));
  size_t i = 0;
  size_t count = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 8));
    v = _mm256_xor_si256(v, bv);
    const __m256i lt = _mm256_cmpgt_epi64(kv, v);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
  for (; i < n; ++i) {
    uint64_t x;
    std::memcpy(&x, p + i * 8, 8);
    count += static_cast<int64_t>(x ^ bias) <
                     static_cast<int64_t>(key ^ bias)
                 ? 1
                 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) inline size_t CountGreater64Avx2(
    const void* data, size_t n, uint64_t key, uint64_t bias) {
  const auto* p = static_cast<const unsigned char*>(data);
  const __m256i bv = _mm256_set1_epi64x(static_cast<long long>(bias));
  const __m256i kv =
      _mm256_set1_epi64x(static_cast<long long>(key ^ bias));
  size_t i = 0;
  size_t count = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 8));
    v = _mm256_xor_si256(v, bv);
    const __m256i gt = _mm256_cmpgt_epi64(v, kv);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(gt)))));
  }
  for (; i < n; ++i) {
    uint64_t x;
    std::memcpy(&x, p + i * 8, 8);
    count += static_cast<int64_t>(x ^ bias) >
                     static_cast<int64_t>(key ^ bias)
                 ? 1
                 : 0;
  }
  return count;
}

// 64-bit keys interleaved with a 64-bit payload (the storage layer's
// 16-byte LeafEntry records): two loads cover 4 records, unpacklo gathers
// the 4 keys (lane order scrambled per 128-bit half, which counting does
// not care about).
__attribute__((target("avx2"))) inline size_t CountLessPairs64Avx2(
    const void* data, size_t n, uint64_t key, uint64_t bias) {
  const auto* p = static_cast<const unsigned char*>(data);
  const __m256i bv = _mm256_set1_epi64x(static_cast<long long>(bias));
  const __m256i kv =
      _mm256_set1_epi64x(static_cast<long long>(key ^ bias));
  size_t i = 0;
  size_t count = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 16));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 16 + 32));
    __m256i keys = _mm256_castpd_si256(_mm256_unpacklo_pd(
        _mm256_castsi256_pd(a), _mm256_castsi256_pd(b)));
    keys = _mm256_xor_si256(keys, bv);
    const __m256i lt = _mm256_cmpgt_epi64(kv, keys);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(lt)))));
  }
  for (; i < n; ++i) {
    uint64_t x;
    std::memcpy(&x, p + i * 16, 8);
    count += static_cast<int64_t>(x ^ bias) <
                     static_cast<int64_t>(key ^ bias)
                 ? 1
                 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) inline size_t CountLess32Avx2(
    const void* data, size_t n, uint32_t key, uint32_t bias) {
  const auto* p = static_cast<const unsigned char*>(data);
  const __m256i bv = _mm256_set1_epi32(static_cast<int>(bias));
  const __m256i kv = _mm256_set1_epi32(static_cast<int>(key ^ bias));
  size_t i = 0;
  size_t count = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 4));
    v = _mm256_xor_si256(v, bv);
    const __m256i lt = _mm256_cmpgt_epi32(kv, v);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)))));
  }
  for (; i < n; ++i) {
    uint32_t x;
    std::memcpy(&x, p + i * 4, 4);
    count += static_cast<int32_t>(x ^ bias) <
                     static_cast<int32_t>(key ^ bias)
                 ? 1
                 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) inline size_t CountGreater32Avx2(
    const void* data, size_t n, uint32_t key, uint32_t bias) {
  const auto* p = static_cast<const unsigned char*>(data);
  const __m256i bv = _mm256_set1_epi32(static_cast<int>(bias));
  const __m256i kv = _mm256_set1_epi32(static_cast<int>(key ^ bias));
  size_t i = 0;
  size_t count = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 4));
    v = _mm256_xor_si256(v, bv);
    const __m256i gt = _mm256_cmpgt_epi32(v, kv);
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(gt)))));
  }
  for (; i < n; ++i) {
    uint32_t x;
    std::memcpy(&x, p + i * 4, 4);
    count += static_cast<int32_t>(x ^ bias) >
                     static_cast<int32_t>(key ^ bias)
                 ? 1
                 : 0;
  }
  return count;
}

#endif  // FITREE_SIMD_AVX2

// The instruction set the vector kernels actually run with on this machine
// (captured in bench metadata so ablation numbers are attributable).
inline const char* IsaName() {
#if defined(FITREE_SIMD_AVX2)
  return HaveAvx2() ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

// Count of keys `< key` over sorted data[0, n). For a sorted run this IS
// the lower-bound offset. Dispatches to the widest kernel the build and the
// CPU support; the scalar loop compiles to a branchless compare-accumulate
// (and auto-vectorizes where the baseline ISA allows).
template <typename K>
inline size_t CountLess(const K* data, size_t n, const K& key) {
  if constexpr (std::is_integral_v<K> && sizeof(K) == 8) {
#if defined(FITREE_SIMD_AVX2)
    if (HaveAvx2()) {
      return CountLess64Avx2(data, n, static_cast<uint64_t>(key), Bias64<K>());
    }
#endif
  } else if constexpr (std::is_integral_v<K> && sizeof(K) == 4) {
#if defined(FITREE_SIMD_AVX2)
    if (HaveAvx2()) {
      return CountLess32Avx2(data, n, static_cast<uint32_t>(key), Bias32<K>());
    }
#endif
  }
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += data[i] < key ? 1 : 0;
  return count;
}

// Count of keys `<= key` over sorted data[0, n) — the upper-bound offset —
// computed as n minus the strictly-greater count so the kernels stay two.
template <typename K>
inline size_t CountLessEq(const K* data, size_t n, const K& key) {
  if constexpr (std::is_integral_v<K> && sizeof(K) == 8) {
#if defined(FITREE_SIMD_AVX2)
    if (HaveAvx2()) {
      return n - CountGreater64Avx2(data, n, static_cast<uint64_t>(key),
                                    Bias64<K>());
    }
#endif
  } else if constexpr (std::is_integral_v<K> && sizeof(K) == 4) {
#if defined(FITREE_SIMD_AVX2)
    if (HaveAvx2()) {
      return n - CountGreater32Avx2(data, n, static_cast<uint32_t>(key),
                                    Bias32<K>());
    }
#endif
  }
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += key < data[i] ? 0 : 1;
  return count;
}

// Count of keys `< key` over n sorted keys laid out at `stride_bytes`
// intervals starting at `base` (the storage layer's interleaved
// {key, payload} leaf records). The vector path covers the 16-byte-record /
// 8-byte-key case the disk tree serializes; anything else runs the strided
// scalar loop.
template <typename K>
inline size_t CountLessStrided(const void* base, size_t stride_bytes, size_t n,
                               const K& key) {
  if constexpr (std::is_integral_v<K> && sizeof(K) == 8) {
    if (stride_bytes == 16) {
#if defined(FITREE_SIMD_AVX2)
      if (HaveAvx2()) {
        return CountLessPairs64Avx2(base, n, static_cast<uint64_t>(key),
                                    Bias64<K>());
      }
#endif
    }
  }
  const auto* p = static_cast<const unsigned char*>(base);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    K x;
    std::memcpy(&x, p + i * stride_bytes, sizeof(K));
    count += x < key ? 1 : 0;
  }
  return count;
}

}  // namespace simd

namespace detail {

// Conditional-move binary narrowing: shrinks [lo, lo + n) to at most
// `limit` keys while keeping the lower-bound answer inside, without a
// single data-dependent branch (the ternary compiles to cmov/csel).
template <typename K>
inline void BranchlessNarrow(const K* data, const K& key, size_t limit,
                             size_t* lo, size_t* n) {
  while (*n > limit) {
    const size_t half = *n / 2;
    const size_t rest = *n - half;
    if (rest > limit) {
      // Both candidate probes of the *next* iteration are known before
      // this iteration's load resolves. Prefetching them overlaps the
      // otherwise serially-dependent misses: cmov defeats the branch
      // speculation that lets plain binary search run its loads ahead,
      // and this buys that overlap back on out-of-cache windows.
      PrefetchRead(data + *lo + rest / 2 - 1);
      PrefetchRead(data + *lo + half + rest / 2 - 1);
    }
    *lo = data[*lo + half - 1] < key ? *lo + half : *lo;
    *n -= half;
  }
}

// Gallops outward from h (where data[h] is valid and begin <= h < end)
// doubling the step, and returns [*lo, *hi) such that the lower bound of
// `key` over data[*lo, *hi) equals the lower bound over data[begin, end).
// The bracket width tracks the model's *actual* error (~2x the distance
// from h to the answer), not the window's worst case.
template <typename K>
inline void GallopBracket(const K* data, size_t begin, size_t end, size_t h,
                          const K& key, size_t* lo, size_t* hi) {
  if (data[h] < key) {
    // Answer in (h, end]; gallop right.
    size_t step = 1;
    *lo = h;
    *hi = h + step;
    while (*hi < end && data[*hi] < key) {
      *lo = *hi;
      step <<= 1;
      *hi = h + step;
    }
    if (*hi > end) *hi = end;
  } else {
    // Answer in [begin, h]; gallop left.
    size_t step = 1;
    *hi = h;
    *lo = h >= begin + step ? h - step : begin;
    while (*lo > begin && data[*lo] >= key) {
      *hi = *lo;
      step <<= 1;
      *lo = h >= begin + step ? h - step : begin;
    }
  }
}

// The default bracket callback of BoundedLowerBound: does nothing.
struct NoBracket {
  void operator()(size_t /*lo*/, size_t /*hi*/) const {}
};

// Lower-bound (first index whose key is >= `key`) over sorted
// data[begin, end), given that the answer is guaranteed to lie in
// [begin, end] and that `hint` (the model's predicted rank) approximates
// it. See the header comment for each policy's use of the hint.
//
// The gallop policies (kExponential, kSimd) call `on_bracket(lo, hi)` with
// GallopBracket's [lo, hi) once the gallop has bracketed the answer, before
// the final count: the lower bound lies in [lo, hi], so an index holding
// `key` does too. A caller that will load something per index (the page's
// payload) can start those lines travelling while the count runs.
template <typename K, typename OnBracket = NoBracket>
size_t BoundedLowerBound(const K* data, size_t begin, size_t end, size_t hint,
                         const K& key, SearchPolicy policy,
                         OnBracket on_bracket = {}) {
  if (begin >= end) return begin;
  switch (policy) {
    case SearchPolicy::kBinary:
      return static_cast<size_t>(
          std::lower_bound(data + begin, data + end, key) - data);
    case SearchPolicy::kLinear: {
      // Scan outward from the prediction, not the window edge: the answer
      // is within the model error of `hint`, usually much closer than the
      // window's begin (whose distance is the *maximum* error).
      size_t i = std::clamp(hint, begin, end - 1);
      if (data[i] < key) {
        do {
          ++i;
        } while (i < end && data[i] < key);
        return i;
      }
      while (i > begin && data[i - 1] >= key) --i;
      return i;
    }
    case SearchPolicy::kExponential: {
      const size_t h = std::clamp(hint, begin, end - 1);
      size_t lo, hi;
      GallopBracket(data, begin, end, h, key, &lo, &hi);
      on_bracket(lo, hi);
      return static_cast<size_t>(
          std::lower_bound(data + lo, data + hi, key) - data);
    }
    case SearchPolicy::kSimd: {
      // Same hint-anchored gallop as kExponential, but the remnant is
      // resolved by cmov narrowing plus a vector compare-and-popcount
      // count instead of branchy bisection.
      const size_t h = std::clamp(hint, begin, end - 1);
      size_t lo, hi;
      GallopBracket(data, begin, end, h, key, &lo, &hi);
      on_bracket(lo, hi);
      size_t n = hi - lo;
      BranchlessNarrow(data, key, simd::kSimdWindowKeys, &lo, &n);
      return lo + simd::CountLess(data + lo, n, key);
    }
  }
  return begin;  // unreachable
}

}  // namespace detail
}  // namespace fitree

#endif  // FITREE_CORE_SEARCH_POLICY_H_
