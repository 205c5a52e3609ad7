// The segment directory of every engine (DILI and FB+-tree in PAPERS.md
// motivate the shape). The paper finds a lookup's segment by descending a
// B+ tree over segment first keys (Sec 4.1); here that job is one
// contiguous sorted array searched with an interpolation guess from a
// cached linear model of the key range, a geometric expansion to bracket
// the answer, a conditional-move binary narrowing, and a final SIMD count:
// no pointer chasing and no data-dependent branches until the last few
// cache lines. Mutations rebuild the array (bulk loads, disk republishes)
// or splice it (single-segment merges); between those it is immutable,
// which is what lets the concurrent tree's COW republish hand it to
// lock-free readers. The paper's B+ tree survives in baselines/ and in the
// directory rows of micro_search_policy and ablation_fanout.

#ifndef FITREE_CORE_FLAT_DIRECTORY_H_
#define FITREE_CORE_FLAT_DIRECTORY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/search_policy.h"

namespace fitree {

// Sorted, duplicate-free key array answering floor queries ("index of the
// last key <= probe"). For the engines whose directory payload is the
// segment's index in an equally-ordered table (static + disk trees), the
// floor index IS the payload, so this keys-only form suffices.
template <typename K>
class FlatKeyIndex {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  FlatKeyIndex() = default;
  explicit FlatKeyIndex(std::vector<K> keys) { Reset(std::move(keys)); }

  void Reset(std::vector<K> keys) {
    keys_ = std::move(keys);
    Recalibrate();
  }

  // Replaces keys_[pos, pos + erase_count) with `add`. The common merge
  // case (one segment resegmented into one) overwrites a slot in place
  // with no tail move.
  void Splice(size_t pos, size_t erase_count, std::span<const K> add) {
    if (add.size() == erase_count) {
      std::copy(add.begin(), add.end(), keys_.begin() + pos);
    } else {
      const auto at = keys_.erase(keys_.begin() + pos,
                                  keys_.begin() + pos + erase_count);
      keys_.insert(at, add.begin(), add.end());
    }
    Recalibrate();
  }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const K& key_at(size_t i) const { return keys_[i]; }
  const std::vector<K>& keys() const { return keys_; }
  size_t MemoryBytes() const { return keys_.capacity() * sizeof(K); }

  // Index of the last key <= `key`, or kNone when `key` sorts before every
  // key. Branchless except for the bracketing probes.
  size_t FloorIndex(const K& key) const {
    const size_t n = keys_.size();
    if (n == 0 || key < keys_[0]) return kNone;
    if (!(key < keys_[n - 1])) return n - 1;
    // Invariant from here: keys_[0] <= key < keys_[n-1], so n >= 2 and the
    // answer lies in [0, n-2].
    const size_t pos = Interpolate(key, n);
    // Geometric expansion around the guess until keys_[lo] <= key <
    // keys_[hi]; a good model makes this one or two probes.
    size_t lo, hi;
    size_t step = kProbeStep;
    if (!(key < keys_[pos])) {
      lo = pos;
      hi = pos + step;
      while (hi < n && !(key < keys_[hi])) {
        lo = hi;
        step <<= 1;
        hi = pos + step;
      }
      if (hi > n - 1) hi = n - 1;
    } else {
      hi = pos;
      lo = pos > step ? pos - step : 0;
      while (lo > 0 && key < keys_[lo]) {
        hi = lo;
        step <<= 1;
        lo = pos > step ? pos - step : 0;
      }
    }
    // The first index whose key is > `key` (the floor's successor) lies in
    // (lo, hi]; narrow branchlessly, then count keys <= `key` with the
    // vector kernel. Note the predicate is <= here, hence the mirrored
    // narrowing instead of detail::BranchlessNarrow.
    size_t b = lo + 1;
    size_t m = hi - lo;
    while (m > simd::kSimdWindowKeys) {
      const size_t half = m / 2;
      b = !(key < keys_[b + half - 1]) ? b + half : b;
      m -= half;
    }
    return b + simd::CountLessEq(keys_.data() + b, m, key) - 1;
  }

 private:
  static constexpr size_t kProbeStep = 8;

  void Recalibrate() {
    const size_t n = keys_.size();
    if (n >= 2 && keys_.front() < keys_.back()) {
      front_ = static_cast<double>(keys_.front());
      scale_ = static_cast<double>(n - 1) /
               (static_cast<double>(keys_.back()) - front_);
    } else {
      front_ = 0.0;
      scale_ = 0.0;
    }
  }

  size_t Interpolate(const K& key, size_t n) const {
    const double est = (static_cast<double>(key) - front_) * scale_;
    if (!(est > 0.0)) return 0;
    const size_t pos = static_cast<size_t>(est);
    return pos > n - 1 ? n - 1 : pos;
  }

  std::vector<K> keys_;
  double front_ = 0.0;  // cached interpolation model: rank ~ (key-front)*scale
  double scale_ = 0.0;
};

// FlatKeyIndex plus a parallel payload array, for engines whose directory
// maps first-keys to out-of-order payloads (segment pointers).
template <typename K, typename V>
class FlatDirectory {
 public:
  static constexpr size_t kNone = FlatKeyIndex<K>::kNone;

  void BulkLoad(std::vector<K> keys, std::vector<V> values) {
    index_.Reset(std::move(keys));
    values_ = std::move(values);
  }

  void Splice(size_t pos, size_t erase_count, std::span<const K> keys,
              std::span<const V> values) {
    index_.Splice(pos, erase_count, keys);
    if (values.size() == erase_count) {
      std::copy(values.begin(), values.end(), values_.begin() + pos);
    } else {
      const auto at = values_.erase(values_.begin() + pos,
                                    values_.begin() + pos + erase_count);
      values_.insert(at, values.begin(), values.end());
    }
  }

  size_t FloorIndex(const K& key) const { return index_.FloorIndex(key); }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  const K& key_at(size_t i) const { return index_.key_at(i); }
  const V& value_at(size_t i) const { return values_[i]; }
  size_t MemoryBytes() const {
    return index_.MemoryBytes() + values_.capacity() * sizeof(V);
  }

 private:
  FlatKeyIndex<K> index_;
  std::vector<V> values_;
};

}  // namespace fitree

#endif  // FITREE_CORE_FLAT_DIRECTORY_H_
