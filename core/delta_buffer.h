// The sorted delta buffer every mutable engine keeps per segment (paper
// Sec 4.2), and the two kernels that apply it to a sorted page: one for
// scans, one for merges. FitingTree (under either sync policy) and
// DiskFitingTree share the record, its ordering and both kernels.
//
// A buffer is a std::vector of BufferEntry sorted by key, at most one entry
// per key. Against its page, an entry means:
//   - a tombstone hides the page key it equals;
//   - a live entry equal to a page key replaces that key's payload;
//   - any other live entry is a key the page does not hold yet.
// FitingTree writes a paged key's new payload into its page, so its live
// entries are all of the last kind; DiskFitingTree's pages are read-only
// and its overlay holds replacements too.

#ifndef FITREE_CORE_DELTA_BUFFER_H_
#define FITREE_CORE_DELTA_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

namespace fitree::detail {

// Invokes a scan callback that accepts either (key) or (key, value), so
// key-only consumers (the paper benches) and payload-aware consumers (the
// CRUD suites) share one ScanRange.
template <typename Fn, typename K, typename V>
inline void EmitEntry(Fn& fn, const K& key, const V& value) {
  if constexpr (std::is_invocable_v<Fn&, const K&, const V&>) {
    fn(key, value);
  } else {
    fn(key);
  }
}

// One pending mutation in a segment's delta buffer.
template <typename K, typename V>
struct BufferEntry {
  K key{};
  V value{};
  bool tombstone = false;
};

// Heterogeneous key comparator for lower_bound over a sorted buffer.
struct BufferKeyLess {
  template <typename K, typename V>
  bool operator()(const BufferEntry<K, V>& e, const K& k) const {
    return e.key < k;
  }
};

// Reads a paged payload as it is; engines whose payloads change under
// lock-free readers pass an atomic load instead.
struct PlainLoad {
  template <typename V>
  const V& operator()(const V& v) const {
    return v;
  }
};

// The scan kernel: calls fn(key) or fn(key, value) for every live entry of
// the sorted page (keys, values, n) with its sorted buffer applied, over
// [lo, hi] in key order, and returns the number emitted. Page payloads are
// read through `load`.
template <typename K, typename V, typename Fn, typename Load = PlainLoad>
size_t EmitMergedRange(const K* keys, const V* values, size_t n,
                       std::span<const BufferEntry<K, V>> buffer, const K& lo,
                       const K& hi, Fn& fn, Load load = {}) {
  size_t emitted = 0;
  const K* k = std::lower_bound(keys, keys + n, lo);
  const K* const k_end = keys + n;
  auto b = std::lower_bound(buffer.begin(), buffer.end(), lo, BufferKeyLess{});
  while (k != k_end || b != buffer.end()) {
    if (b == buffer.end() || (k != k_end && *k < b->key)) {
      if (hi < *k) break;
      EmitEntry(fn, *k, load(values[k - keys]));
      ++emitted;
      ++k;
      continue;
    }
    if (hi < b->key) break;
    if (k != k_end && *k == b->key) ++k;  // shadowed: hidden or replaced
    if (!b->tombstone) {
      EmitEntry(fn, b->key, b->value);
      ++emitted;
    }
    ++b;
  }
  return emitted;
}

// The merge kernel: writes the sorted page (keys, values, n entries) with
// its sorted buffer applied to out_keys/out_values and returns the entry
// count. The outputs need room for n + (live entries) - (tombstones)
// entries, the exact count when no live entry is paged, and must not
// overlap the inputs. The page between two buffer entries is copied as one
// run.
template <typename K, typename V>
size_t MergePageWithBuffer(const K* keys, const V* values, size_t n,
                           std::span<const BufferEntry<K, V>> buffer,
                           K* out_keys, V* out_values) {
  size_t k = 0;
  size_t out = 0;
  const auto copy_run = [&](size_t end) {
    // std::copy_n, unlike memcpy, takes the null pointers of an empty
    // vector; for trivially copyable types it is one memmove.
    std::copy_n(keys + k, end - k, out_keys + out);
    std::copy_n(values + k, end - k, out_values + out);
    out += end - k;
    k = end;
  };
  for (const BufferEntry<K, V>& e : buffer) {
    const K* pos = std::lower_bound(keys + k, keys + n, e.key);
    copy_run(static_cast<size_t>(pos - keys));
    if (k < n && keys[k] == e.key) ++k;  // shadowed: dropped or replaced
    if (!e.tombstone) {
      out_keys[out] = e.key;
      out_values[out] = e.value;
      ++out;
    }
  }
  copy_run(n);
  return out;
}

}  // namespace fitree::detail

#endif  // FITREE_CORE_DELTA_BUFFER_H_
