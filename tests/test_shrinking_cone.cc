#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "core/non_linearity.h"
#include "core/optimal_segmentation.h"
#include "core/shrinking_cone.h"
#include "datasets/datasets.h"

namespace {

using fitree::Feasibility;
using fitree::OptimalSegmentCount;
using fitree::Segment;
using fitree::SegmentShrinkingCone;

std::vector<std::vector<int64_t>> SyntheticDatasets(size_t n) {
  return {fitree::datasets::Weblogs(n, 1),
          fitree::datasets::Iot(n, 2),
          fitree::datasets::Maps(n, 3),
          fitree::datasets::OsmLongitude(n, 4),
          fitree::datasets::TaxiPickupTime(n, 5),
          fitree::datasets::TaxiDropLat(n, 6),
          fitree::datasets::TaxiDropLon(n, 7),
          fitree::datasets::Step(n, 100)};
}

// The segmentation invariant: segments partition the rank space and every
// key's predicted position is within `error` of its true rank (a hair of
// floating-point slack on top).
template <typename K>
void CheckInvariants(const std::vector<K>& keys, double error,
                     Feasibility feasibility) {
  const auto segments =
      SegmentShrinkingCone<K>(std::span<const K>(keys), error, feasibility);
  ASSERT_FALSE(segments.empty());
  size_t expected_start = 0;
  for (const Segment<K>& seg : segments) {
    EXPECT_EQ(seg.start, expected_start);
    EXPECT_GT(seg.length, 0u);
    EXPECT_EQ(seg.first_key, keys[seg.start]);
    for (size_t i = 0; i < seg.length; ++i) {
      const double pred = seg.Predict(keys[seg.start + i]);
      const double rank = static_cast<double>(seg.start + i);
      EXPECT_LE(std::abs(pred - rank), error + 1e-6)
          << "segment at " << seg.start << " key index " << i;
    }
    expected_start += seg.length;
  }
  EXPECT_EQ(expected_start, keys.size());
}

TEST(ShrinkingCone, ErrorBoundAcrossSyntheticDatasets) {
  const auto datasets = SyntheticDatasets(20000);
  for (const auto& keys : datasets) {
    for (const double error : {10.0, 100.0, 1000.0}) {
      CheckInvariants(keys, error, Feasibility::kEndpointLine);
      CheckInvariants(keys, error, Feasibility::kCone);
    }
  }
}

// The kEndpointLine loop as it was before the two-lane divide, verbatim:
// the reference the vectorized loop must match bit for bit.
template <typename K>
std::vector<Segment<K>> ScalarEndpointLine(std::span<const K> keys,
                                           double error) {
  std::vector<Segment<K>> segments;
  const size_t n = keys.size();
  if (n == 0) return segments;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t start = 0;
  double lo = 0.0, hi = kInf;
  for (size_t i = start + 1; i < n; ++i) {
    const double dx = static_cast<double>(keys[i]) -
                      static_cast<double>(keys[start]);
    const double dy = static_cast<double>(i - start);
    const double nlo = std::max(lo, (dy - error) / dx);
    const double nhi = std::min(hi, (dy + error) / dx);
    if (nlo > nhi) {
      segments.push_back(
          {keys[start], hi == kInf ? 0.0 : 0.5 * (lo + hi),
           static_cast<double>(start), start, i - start});
      start = i;
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

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectMatchesScalarReference(const std::vector<int64_t>& keys,
                                  double error) {
  const std::span<const int64_t> span(keys);
  const auto want = ScalarEndpointLine<int64_t>(span, error);
  const auto got = SegmentShrinkingCone<int64_t>(span, error);
  ASSERT_EQ(got.size(), want.size()) << "error " << error;
  for (size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].first_key, want[s].first_key) << "segment " << s;
    ASSERT_EQ(got[s].start, want[s].start) << "segment " << s;
    ASSERT_EQ(got[s].length, want[s].length) << "segment " << s;
    ASSERT_TRUE(SameBits(got[s].slope, want[s].slope))
        << "segment " << s << ": " << got[s].slope << " vs " << want[s].slope;
    ASSERT_TRUE(SameBits(got[s].intercept, want[s].intercept))
        << "segment " << s;
  }
}

constexpr double kReferenceErrors[] = {0.5, 1.0, 4.0, 16.0, 64.0, 256.0,
                                       4096.0};

TEST(ShrinkingCone, TwoLaneDivideMatchesScalarReference) {
  const auto datasets = SyntheticDatasets(100000);
  for (const auto& keys : datasets) {
    for (const double error : kReferenceErrors) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesScalarReference(keys, error));
    }
  }
}

// Near 2^62 doubles are 1024 apart, so runs of distinct int64 keys convert
// to one double: dx is 0 and the quotients are +-inf, or NaN where
// dy == error.
TEST(ShrinkingCone, CollidingDoublesMatchScalarReference) {
  std::mt19937_64 rng(62);
  std::vector<int64_t> keys;
  int64_t key = int64_t{1} << 62;
  size_t collisions = 0;
  for (int i = 0; i < 50000; ++i) {
    // Mostly small steps (colliding), now and then a jump of many ulps.
    key += rng() % 8 == 0 ? 1 + static_cast<int64_t>(rng() % 100000)
                          : 1 + static_cast<int64_t>(rng() % 300);
    if (!keys.empty() &&
        static_cast<double>(key) == static_cast<double>(keys.back())) {
      ++collisions;
    }
    keys.push_back(key);
  }
  ASSERT_GT(collisions, keys.size() / 2);
  for (const double error : kReferenceErrors) {
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesScalarReference(keys, error));
  }
}

TEST(ShrinkingCone, LinearDataCollapsesToOneSegment) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i * 5);
  for (const auto feasibility :
       {Feasibility::kEndpointLine, Feasibility::kCone}) {
    const auto segments =
        SegmentShrinkingCone<int64_t>(std::span<const int64_t>(keys), 1.0,
                                      feasibility);
    EXPECT_EQ(segments.size(), 1u);
  }
}

TEST(ShrinkingCone, SingleAndTinyInputs) {
  const std::vector<int64_t> empty;
  EXPECT_TRUE(SegmentShrinkingCone<int64_t>(std::span<const int64_t>(empty),
                                            10.0)
                  .empty());
  CheckInvariants<int64_t>({42}, 10.0, Feasibility::kEndpointLine);
  CheckInvariants<int64_t>({42}, 10.0, Feasibility::kCone);
  CheckInvariants<int64_t>({1, 2}, 0.0, Feasibility::kEndpointLine);
  CheckInvariants<int64_t>({1, 1000000}, 0.0, Feasibility::kCone);
}

// The exact hull fitter must agree with the O(w^2) pairwise feasibility
// oracle: every segment it emits is feasible, and extending any segment by
// one more key is infeasible (that is what makes greedy optimal).
TEST(ShrinkingCone, ConeModeMatchesBruteForceFeasibility) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<int64_t> keys;
    int64_t key = 0;
    const int64_t spread = 1 + static_cast<int64_t>(rng() % 1000);
    for (int i = 0; i < 400; ++i) {
      key += 1 + static_cast<int64_t>(rng() % spread);
      keys.push_back(key);
    }
    const double error = 1.0 + static_cast<double>(rng() % 20);
    const auto segments = SegmentShrinkingCone<int64_t>(
        std::span<const int64_t>(keys), error, Feasibility::kCone);
    for (size_t s = 0; s < segments.size(); ++s) {
      // Rebase ranks so the brute-force oracle sees local positions, like
      // the greedy fitter did when it opened the segment.
      const std::vector<int64_t> window(
          keys.begin() + segments[s].start,
          keys.begin() + segments[s].start + segments[s].length);
      EXPECT_TRUE(fitree::Feasibility2DBruteForce(
          std::span<const int64_t>(window), 0, window.size(), error))
          << "round " << round << " segment " << s;
      if (s + 1 < segments.size()) {
        std::vector<int64_t> extended = window;
        extended.push_back(keys[segments[s].start + segments[s].length]);
        EXPECT_FALSE(fitree::Feasibility2DBruteForce(
            std::span<const int64_t>(extended), 0, extended.size(), error))
            << "round " << round << " segment " << s
            << " should have been maximal";
      }
    }
  }
}

TEST(ErrorWindow, ClampRankClampsBeforeCasting) {
  using fitree::ClampRank;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ClampRank(5.7, 3, 9), 5u);
  EXPECT_EQ(ClampRank(3.0, 3, 9), 3u);
  EXPECT_EQ(ClampRank(9.0, 3, 9), 9u);
  EXPECT_EQ(ClampRank(-1e30, 3, 9), 3u);
  EXPECT_EQ(ClampRank(-inf, 3, 9), 3u);
  EXPECT_EQ(ClampRank(std::nan(""), 3, 9), 3u);
  // Past 2^64, where a bare cast to size_t is undefined.
  EXPECT_EQ(ClampRank(1.9e19, 3, 9), 9u);
  EXPECT_EQ(ClampRank(inf, 3, 9), 9u);
  // A prediction past the page leaves an empty window at its end.
  EXPECT_EQ(fitree::ErrorWindow(1.9e19, 16.0, 0, 1000),
            (std::pair<size_t, size_t>{1000, 1000}));
  EXPECT_EQ(fitree::ErrorWindow(-1.9e19, 16.0, 0, 1000),
            (std::pair<size_t, size_t>{0, 0}));
}

TEST(OptimalSegmentation, NeverWorseThanGreedy) {
  const size_t n = 20000;
  const std::vector<std::vector<int64_t>> datasets = {
      fitree::datasets::Weblogs(n, 1), fitree::datasets::Iot(n, 2),
      fitree::datasets::TaxiDropLat(n, 6), fitree::datasets::Step(n, 100)};
  for (const auto& keys : datasets) {
    for (const double error : {10.0, 100.0}) {
      const size_t greedy =
          SegmentShrinkingCone<int64_t>(std::span<const int64_t>(keys), error)
              .size();
      const size_t optimal =
          OptimalSegmentCount<int64_t>(std::span<const int64_t>(keys), error);
      EXPECT_LE(optimal, greedy);
      EXPECT_GE(optimal, 1u);
    }
  }
}

TEST(OptimalSegmentation, AdversarialConeGapGrowsWithPatterns) {
  const double error = 100.0;
  const auto data = fitree::datasets::AdversarialCone(error, 100);
  const size_t greedy =
      SegmentShrinkingCone<double>(std::span<const double>(data.keys), error)
          .size();
  const size_t optimal = OptimalSegmentCount<double>(
      std::span<const double>(data.keys), error);
  // One free line threads all clusters; the apex-pinned greedy cone cannot.
  EXPECT_LE(optimal, 2u);
  EXPECT_GE(greedy, 20u);
}

TEST(NonLinearity, RatioBoundsAndShape) {
  const auto step = fitree::datasets::Step(20000, 100);
  // Below the step size each run needs its own segment (ratio ~(e+1)/step);
  // past it the staircase is globally linear and collapses to one segment.
  const double small = fitree::NonLinearityRatio<int64_t>(step, 10.0);
  const double large = fitree::NonLinearityRatio<int64_t>(step, 150.0);
  EXPECT_GT(small, 0.05);
  EXPECT_LE(small, 1.0 + 1e-9);
  EXPECT_LT(large, small);
}

}  // namespace
