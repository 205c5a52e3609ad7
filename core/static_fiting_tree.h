// Read-only FITing-Tree (paper Sec 4.1): a bulk-loaded array of
// error-bounded linear segments with a flat directory over the segment
// boundary keys (core/flat_directory.h). Lookups find the floor segment,
// evaluate its line and finish with a bounded search in the +/- error
// window. Because the data stays in one flat sorted array, ranks are
// exact, which gives O(log) RangeCount via rank subtraction (used by
// bench_range).
//
// The key set is immutable, but each key can carry a 64-bit payload
// (values()); payloads default to the key's rank — the convention the
// storage/ serializer shares — and are updatable in place.

#ifndef FITREE_CORE_STATIC_FITING_TREE_H_
#define FITREE_CORE_STATIC_FITING_TREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/prefetch.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

namespace fitree {

template <typename K>
class StaticFitingTree {
 public:
  using Key = K;
  using Payload = uint64_t;

  // `policy` picks the in-window search; only the search-policy ablation
  // and the oracle tests pass anything but the SIMD default.
  static std::unique_ptr<StaticFitingTree<K>> Create(
      const std::vector<K>& keys, double error,
      SearchPolicy policy = SearchPolicy::kSimd) {
    return Create(keys, {}, error, policy);
  }

  // Bulk-loads `keys` with explicit rank->payload values (empty = payload
  // is the rank itself, the serializer's default).
  static std::unique_ptr<StaticFitingTree<K>> Create(
      const std::vector<K>& keys, const std::vector<uint64_t>& values,
      double error, SearchPolicy policy = SearchPolicy::kSimd) {
    auto tree = std::make_unique<StaticFitingTree<K>>();
    tree->policy_ = policy;
    tree->BulkLoad(std::span<const K>(keys), std::span<const uint64_t>(values),
                   error);
    return tree;
  }

  void BulkLoad(std::span<const K> keys, double error) {
    BulkLoad(keys, {}, error);
  }

  // Replaces the contents with `keys` (sorted, duplicate-free) and their
  // payloads (`values` empty keeps the rank convention).
  void BulkLoad(std::span<const K> keys, std::span<const uint64_t> values,
                double error) {
    error_ = error;
    data_.assign(keys.begin(), keys.end());
    values_.assign(values.begin(), values.end());
    segments_ = SegmentShrinkingCone<K>(data_, error);
    std::vector<K> first_keys;
    first_keys.reserve(segments_.size());
    for (const auto& s : segments_) first_keys.push_back(s.first_key);
    // Segment ids are 0..n-1 in first-key order, so the floor index is
    // itself the id.
    directory_.Reset(std::move(first_keys));
  }

  size_t size() const { return data_.size(); }

  // Rank of the first key >= `key` (i.e. `key`'s insertion point).
  size_t LowerBound(const K& key) const { return Bound(key, /*upper=*/false); }

  // Rank of the first key > `key`.
  size_t UpperBound(const K& key) const { return Bound(key, /*upper=*/true); }

  // The rank of `key` when present.
  std::optional<size_t> Find(const K& key) const {
    const size_t i = LowerBound(key);
    if (i < data_.size() && data_[i] == key) return i;
    return std::nullopt;
  }

  bool Contains(const K& key) const { return Find(key).has_value(); }

  // Payload stored for `key` (its rank when no explicit values were
  // loaded), or nullopt when absent.
  std::optional<uint64_t> Lookup(const K& key) const {
    const auto rank = Find(key);
    if (!rank.has_value()) return std::nullopt;
    return values_.empty() ? static_cast<uint64_t>(*rank) : values_[*rank];
  }

  // Replaces the payload of a present key in place (the key set itself is
  // immutable). Returns false when absent. Named Update to match the
  // engine-wide contract (core/index_api.h); the read-only key set still
  // rules out Insert/Delete, so this engine models IndexApi but not
  // MutableIndexApi.
  bool Update(const K& key, uint64_t value) {
    const auto rank = Find(key);
    if (!rank.has_value()) return false;
    if (values_.empty()) {
      // Materialize the implicit rank payloads before the first override.
      values_.resize(data_.size());
      for (size_t i = 0; i < values_.size(); ++i) {
        values_[i] = static_cast<uint64_t>(i);
      }
    }
    values_[*rank] = value;
    return true;
  }

  // Number of keys in [lo, hi]: two rank lookups, no scan.
  size_t RangeCount(const K& lo, const K& hi) const {
    if (hi < lo) return 0;
    return UpperBound(hi) - LowerBound(lo);
  }

  // Calls fn(key) or fn(key, value) for every key in [lo, hi] ascending.
  // Counts one static/scan (plus the static/lookup its descent performs).
  // Returns the number of entries emitted (IndexApi contract).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    telemetry::ScopedOp telem(telemetry::Engine::kStatic,
                              telemetry::Op::kScan);
    size_t emitted = 0;
    for (size_t i = LowerBound(lo); i < data_.size() && data_[i] <= hi; ++i) {
      if constexpr (std::is_invocable_v<Fn&, const K&, const uint64_t&>) {
        fn(data_[i],
           values_.empty() ? static_cast<uint64_t>(i) : values_[i]);
      } else {
        fn(data_[i]);
      }
      ++emitted;
    }
    return emitted;
  }

  // Directory plus per-segment model metadata; the data array itself is the
  // indexed table, not the index (paper's accounting in Fig 6/9).
  size_t IndexSizeBytes() const {
    return directory_.MemoryBytes() + segments_.size() * kSegmentMetaBytes;
  }

  // The segment table in the fixed-width form the storage/ serializer
  // writes (see storage/segment_file.h).
  std::vector<PackedSegment<K>> ExportSegmentTable() const {
    std::vector<PackedSegment<K>> packed;
    packed.reserve(segments_.size());
    for (const auto& s : segments_) packed.push_back(s.Pack());
    return packed;
  }

  // Structural snapshot (telemetry tentpole): the shape of the bulk-loaded
  // structure — segment count, length distribution and footprint — as one
  // uniform record (see telemetry/structural.h).
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(telemetry::Engine::kStatic);
    st.Add("keys", static_cast<double>(data_.size()));
    st.Add("segments", static_cast<double>(segments_.size()));
    st.Add("error", error_);
    size_t min_len = 0, max_len = 0;
    if (!segments_.empty()) {
      min_len = max_len = segments_[0].length;
      for (const auto& s : segments_) {
        min_len = std::min(min_len, s.length);
        max_len = std::max(max_len, s.length);
      }
    }
    st.Add("segment_len_min", static_cast<double>(min_len));
    st.Add("segment_len_mean",
           segments_.empty() ? 0.0
                             : static_cast<double>(data_.size()) /
                                   static_cast<double>(segments_.size()));
    st.Add("segment_len_max", static_cast<double>(max_len));
    st.Add("index_bytes", static_cast<double>(IndexSizeBytes()));
    return st;
  }

  size_t SegmentCount() const { return segments_.size(); }
  double error() const { return error_; }
  const std::vector<K>& data() const { return data_; }
  // Explicit payloads; empty means the implicit rank convention.
  const std::vector<uint64_t>& values() const { return values_; }
  const std::vector<Segment<K>>& segments() const { return segments_; }

 private:
  static constexpr size_t kSegmentMetaBytes =
      sizeof(K) + 2 * sizeof(double) + sizeof(void*);

  // The single descent choke point: Contains/Find/Lookup/LowerBound all
  // funnel here, so one ScopedOp counts each descent exactly once
  // (RangeCount's two bounds count as two).
  size_t Bound(const K& key, bool upper) const {
    telemetry::ScopedOp telem(telemetry::Engine::kStatic,
                              telemetry::Op::kLookup);
    if (data_.empty()) return 0;
    size_t id;
    {
      telemetry::ScopedPhase descent(telemetry::Engine::kStatic,
                                     telemetry::Phase::kDirectoryDescent);
      id = directory_.FloorIndex(key);
      if (id == FlatKeyIndex<K>::kNone) return 0;  // before every indexed key
    }
    telemetry::ScopedPhase search(telemetry::Engine::kStatic,
                                  telemetry::Phase::kWindowSearch);
    const Segment<K>& seg = segments_[id];
    const size_t seg_end = seg.start + seg.length;
    const double pred = seg.Predict(key);
    const auto [begin, end] = ErrorWindow(pred, error_, seg.start, seg_end);
    const size_t hint = static_cast<size_t>(std::max(0.0, pred));
    // Pull the predicted line in while the window bounds resolve.
    PrefetchRead(data_.data() + std::min(hint, data_.size() - 1));
    size_t i = detail::BoundedLowerBound(data_.data(), begin, end, hint, key,
                                         policy_);
    if (upper) {
      while (i < data_.size() && data_[i] == key) ++i;
    }
    return i;
  }

  double error_ = 0.0;
  SearchPolicy policy_ = SearchPolicy::kBinary;
  std::vector<K> data_;
  std::vector<uint64_t> values_;  // empty = payload is the rank
  std::vector<Segment<K>> segments_;
  FlatKeyIndex<K> directory_;  // segment first keys; floor index = id
};

}  // namespace fitree

#endif  // FITREE_CORE_STATIC_FITING_TREE_H_
