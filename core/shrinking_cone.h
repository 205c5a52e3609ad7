// One-pass error-bounded segmentation (paper Sec 3.2, Algorithm "shrinking
// cone"): partitions a sorted key array into linear segments such that each
// key's predicted position is within `error` of its true position.
//
// Two feasibility rules are provided (ablation (c) in bench_ablations):
//  - kEndpointLine: the paper's rule. The segment's line must pass through
//    its first point (the cone apex); the feasible slope interval shrinks as
//    points arrive and the segment closes when it empties. O(1) per key.
//  - kCone: PGM-style exact rule. The segment admits *any* line within
//    `error` of all of its points, tracked with convex hulls of the +/-error
//    constraint points. Greedily extending a segment for as long as any
//    feasible line exists yields the minimum possible number of segments
//    (feasibility is closed under taking prefixes), which is why
//    optimal_segmentation.h reuses this machinery as the Table 1 reference.

#ifndef FITREE_CORE_SHRINKING_CONE_H_
#define FITREE_CORE_SHRINKING_CONE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace fitree {

enum class Feasibility {
  kEndpointLine,  // paper's shrinking cone: line pinned to the first point
  kCone,          // exact: any line within error of every point
};

// One linear segment over the sorted key array. The global position of `key`
// inside this segment is predicted as
//   intercept + slope * (key - first_key)
// and is within `error` of the key's true rank for every covered key (up to
// floating-point rounding). For kEndpointLine, intercept == start exactly.
template <typename K>
struct Segment;

// Fixed-width form of Segment used by the storage/ layer when serializing
// the segment table to disk: size_t is platform-dependent, uint64_t is not,
// so an index file written on one machine opens on another.
template <typename K>
struct PackedSegment {
  K first_key{};
  double slope = 0.0;
  double intercept = 0.0;
  uint64_t start = 0;   // rank of first covered key
  uint64_t length = 0;  // number of covered keys

  double Predict(const K& key) const {
    return intercept +
           slope * (static_cast<double>(key) - static_cast<double>(first_key));
  }

  friend bool operator==(const PackedSegment&, const PackedSegment&) = default;
};

template <typename K>
struct Segment {
  K first_key{};
  double slope = 0.0;
  double intercept = 0.0;
  size_t start = 0;   // rank of first covered key
  size_t length = 0;  // number of covered keys

  double Predict(const K& key) const {
    return intercept +
           slope * (static_cast<double>(key) - static_cast<double>(first_key));
  }

  PackedSegment<K> Pack() const {
    return {first_key, slope, intercept, static_cast<uint64_t>(start),
            static_cast<uint64_t>(length)};
  }
};

// A predicted position truncated to a rank in [lo, hi]. The clamp comes
// before the cast: a prediction for a key near the key type's extremes can
// pass 2^64 (or fall below 0), where casting a double to size_t is
// undefined.
inline size_t ClampRank(double pos, size_t lo, size_t hi) {
  if (!(pos > static_cast<double>(lo))) return lo;
  if (pos >= static_cast<double>(hi)) return hi;
  return std::min(hi, static_cast<size_t>(pos));
}

// Rank window [begin, end) guaranteed to contain the key's insertion point
// given its segment's prediction: the model is error-bounded on the
// segment's keys and monotone between them, so the true rank is within
// error+2 of `pred` and, for the floor segment, inside [seg_start,
// seg_end]. Shared by the in-memory and disk-resident lookup paths so the
// two stay bit-identical.
inline std::pair<size_t, size_t> ErrorWindow(double pred, double error,
                                             size_t seg_start,
                                             size_t seg_end) {
  const size_t begin = ClampRank(pred - error - 2.0, seg_start, seg_end);
  const size_t end =
      std::max(begin, ClampRank(pred + error + 2.0, seg_start, seg_end));
  return {begin, end};
}

namespace detail {

// Incremental test for "does any line fit all points seen so far within
// +/- error". Points arrive with strictly increasing x. Maintains the upper
// hull of the low constraint points (x, y - e) and the lower hull of the
// high constraint points (x, y + e); the feasible slope interval is
//   [ max over pairs (low_j - high_i)/(x_j - x_i),
//     min over pairs (high_j - low_i)/(x_j - x_i) ]
// and each new point tightens it via a tangent search on the opposing hull
// (unimodal over a strictly convex chain, so binary-refined ternary search).
class ExactLineFitter {
  struct Pt {
    double x;
    double y;
  };

 public:
  explicit ExactLineFitter(double error) : e_(error) {}

  size_t size() const { return n_; }
  double slope_lo() const { return slope_lo_; }
  double slope_hi() const { return slope_hi_; }

  void Reset() {
    n_ = 0;
    lows_.clear();
    highs_.clear();
    slope_lo_ = -std::numeric_limits<double>::infinity();
    slope_hi_ = std::numeric_limits<double>::infinity();
  }

  // Returns false (leaving the fitter unchanged) when no single line can
  // cover the previous points plus (x, y).
  bool TryAdd(double x, double y) {
    const Pt low{x, y - e_};
    const Pt high{x, y + e_};
    if (n_ > 0) {
      // Tightest new bounds come from tangents against the opposing hulls.
      const double hi_cand = MinSlopeTo(lows_, high);
      const double lo_cand = MaxSlopeTo(highs_, low);
      const double new_lo = std::max(slope_lo_, lo_cand);
      const double new_hi = std::min(slope_hi_, hi_cand);
      if (new_lo > new_hi) return false;
      slope_lo_ = new_lo;
      slope_hi_ = new_hi;
    }
    PushUpperHull(lows_, low);
    PushLowerHull(highs_, high);
    ++n_;
    return true;
  }

 private:
  static double Slope(const Pt& a, const Pt& b) {
    return (b.y - a.y) / (b.x - a.x);
  }

  // cross(o, a, b) > 0 <=> o->a->b turns counter-clockwise.
  static double Cross(const Pt& o, const Pt& a, const Pt& b) {
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
  }

  static void PushUpperHull(std::vector<Pt>& hull, const Pt& p) {
    while (hull.size() >= 2 &&
           Cross(hull[hull.size() - 2], hull.back(), p) >= 0.0) {
      hull.pop_back();
    }
    hull.push_back(p);
  }

  static void PushLowerHull(std::vector<Pt>& hull, const Pt& p) {
    while (hull.size() >= 2 &&
           Cross(hull[hull.size() - 2], hull.back(), p) <= 0.0) {
      hull.pop_back();
    }
    hull.push_back(p);
  }

  // Minimum slope from any hull point to `p` (p.x greater than every hull
  // x). Unimodal over the chain; ternary-search then resolve locally.
  static double MinSlopeTo(const std::vector<Pt>& hull, const Pt& p) {
    size_t lo = 0, hi = hull.size() - 1;
    while (hi - lo > 2) {
      const size_t m1 = lo + (hi - lo) / 3;
      const size_t m2 = hi - (hi - lo) / 3;
      if (Slope(hull[m1], p) < Slope(hull[m2], p)) {
        hi = m2 - 1;
      } else {
        lo = m1 + 1;
      }
    }
    double best = Slope(hull[lo], p);
    for (size_t i = lo + 1; i <= hi; ++i) {
      best = std::min(best, Slope(hull[i], p));
    }
    return best;
  }

  static double MaxSlopeTo(const std::vector<Pt>& hull, const Pt& p) {
    size_t lo = 0, hi = hull.size() - 1;
    while (hi - lo > 2) {
      const size_t m1 = lo + (hi - lo) / 3;
      const size_t m2 = hi - (hi - lo) / 3;
      if (Slope(hull[m1], p) > Slope(hull[m2], p)) {
        hi = m2 - 1;
      } else {
        lo = m1 + 1;
      }
    }
    double best = Slope(hull[lo], p);
    for (size_t i = lo + 1; i <= hi; ++i) {
      best = std::max(best, Slope(hull[i], p));
    }
    return best;
  }

  double e_;
  size_t n_ = 0;
  std::vector<Pt> lows_;   // upper hull of (x, y - e)
  std::vector<Pt> highs_;  // lower hull of (x, y + e)
  double slope_lo_ = -std::numeric_limits<double>::infinity();
  double slope_hi_ = std::numeric_limits<double>::infinity();
};

// Picks a concrete witness line for keys[start..start+length) given a
// feasible slope, anchored at first_key: intercept is the midpoint of the
// feasible intercept interval (non-empty by construction, up to rounding).
template <typename K>
double FitIntercept(std::span<const K> keys, size_t start, size_t length,
                    double slope, double error) {
  const double x0 = static_cast<double>(keys[start]);
  double b_lo = -std::numeric_limits<double>::infinity();
  double b_hi = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < length; ++i) {
    const double dx = static_cast<double>(keys[start + i]) - x0;
    const double y = static_cast<double>(start + i);
    b_lo = std::max(b_lo, y - error - slope * dx);
    b_hi = std::min(b_hi, y + error - slope * dx);
  }
  return 0.5 * (b_lo + b_hi);
}

}  // namespace detail

// Segments `keys` (sorted, duplicate-free) so that every key's predicted
// position is within `error` of its rank. Returns at least one segment for
// non-empty input; segments partition [0, keys.size()).
template <typename K>
std::vector<Segment<K>> SegmentShrinkingCone(
    std::span<const K> keys, double error,
    Feasibility feasibility = Feasibility::kEndpointLine) {
  std::vector<Segment<K>> segments;
  const size_t n = keys.size();
  if (n == 0) return segments;

  if (feasibility == Feasibility::kEndpointLine) {
    // Both slope bounds of a key come from one two-lane divide (SSE2
    // divpd, NEON fdiv.2d). IEEE arithmetic rounds each lane as the scalar
    // operation does, and dy + (-error) is dy - error exactly, so the
    // segments are bit-identical to computing each bound on its own.
    typedef double Double2 __attribute__((vector_size(16)));
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Double2 band = {-error, error};
    size_t start = 0;
    double apex = static_cast<double>(keys[0]);
    double dy = 0.0;  // i - start, exact below 2^53
    double lo = 0.0, hi = kInf;
    for (size_t i = 1; i < n; ++i) {
      const double dx = static_cast<double>(keys[i]) - apex;
      dy += 1.0;
      const Double2 bounds = (Double2{dy, dy} + band) / Double2{dx, dx};
      const double nlo = std::max(lo, bounds[0]);
      const double nhi = std::min(hi, bounds[1]);
      if (nlo > nhi) {
        segments.push_back(
            {keys[start], hi == kInf ? 0.0 : 0.5 * (lo + hi),
             static_cast<double>(start), start, i - start});
        start = i;
        apex = static_cast<double>(keys[i]);
        dy = 0.0;
        lo = 0.0;
        hi = kInf;
      } else {
        lo = nlo;
        hi = nhi;
      }
    }
    segments.push_back({keys[start], hi == kInf ? 0.0 : 0.5 * (lo + hi),
                        static_cast<double>(start), start, n - start});
    return segments;
  }

  // kCone: greedy maximal extension under exact line feasibility.
  detail::ExactLineFitter fitter(error);
  size_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    if (fitter.TryAdd(static_cast<double>(keys[i]),
                      static_cast<double>(i))) {
      continue;
    }
    const double slope =
        fitter.size() == 1 ? 0.0
                           : 0.5 * (fitter.slope_lo() + fitter.slope_hi());
    segments.push_back(
        {keys[start], slope,
         detail::FitIntercept(keys, start, i - start, slope, error), start,
         i - start});
    start = i;
    fitter.Reset();
    fitter.TryAdd(static_cast<double>(keys[i]), static_cast<double>(i));
  }
  const double slope = fitter.size() == 1
                           ? 0.0
                           : 0.5 * (fitter.slope_lo() + fitter.slope_hi());
  segments.push_back(
      {keys[start], slope,
       detail::FitIntercept(keys, start, n - start, slope, error), start,
       n - start});
  return segments;
}

}  // namespace fitree

#endif  // FITREE_CORE_SHRINKING_CONE_H_
