// Exhaustive differential coverage of the in-window search policies (kSimd
// against the scalar policies and std::lower_bound) and of the flat
// directory's floor search. Windows are staged in exactly-sized heap
// allocations so that any masked-lane or tail over-read past the window
// lands in an ASan redzone — CI runs this suite under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/flat_directory.h"
#include "core/search_policy.h"

namespace {

using fitree::FlatDirectory;
using fitree::FlatKeyIndex;
using fitree::SearchPolicy;

constexpr size_t kNoFloor = FlatDirectory<int64_t, int>::kNone;

constexpr SearchPolicy kAllPolicies[] = {
    SearchPolicy::kBinary, SearchPolicy::kLinear, SearchPolicy::kExponential,
    SearchPolicy::kSimd};

// Sorted window of `n` keys with duplicate runs, clamped away from the
// numeric extremes so +/-1 probes cannot overflow. `sentinels` pins the
// first key to numeric_limits::min() and the last to ::max().
template <typename K>
std::vector<K> MakeWindow(size_t n, std::mt19937_64* rng, bool sentinels) {
  std::vector<K> keys(n);
  if (n == 0) return keys;
  // Mostly small gaps with occasional duplicates (gap 0).
  std::uniform_int_distribution<int> gap(0, 6);
  K cur = static_cast<K>(std::numeric_limits<K>::min() / 2 + 1000);
  for (size_t i = 0; i < n; ++i) {
    cur = static_cast<K>(cur + static_cast<K>(gap(*rng)));
    keys[i] = cur;
  }
  if (sentinels) {
    keys.front() = std::numeric_limits<K>::min();
    if (n > 1) keys.back() = std::numeric_limits<K>::max();
    std::sort(keys.begin(), keys.end());
  }
  return keys;
}

// Checks every policy against std::lower_bound for one window placed at
// absolute offset `begin` inside an exactly-sized allocation.
template <typename K>
void CheckWindow(const std::vector<K>& window, size_t begin) {
  const size_t n = window.size();
  const size_t end = begin + n;
  // Exact allocation: [0, begin) is initialized slack below the window
  // (never consulted by any policy), and there is NO slack above — reads
  // past `end` hit the heap redzone under ASan.
  std::unique_ptr<K[]> data(new K[end > 0 ? end : 1]);
  for (size_t i = 0; i < begin; ++i) data[i] = std::numeric_limits<K>::min();
  std::copy(window.begin(), window.end(), data.get() + begin);

  std::vector<K> probes;
  probes.reserve(2 * n + 4);
  for (const K& k : window) {
    probes.push_back(k);  // present (or duplicate run member)
    if (k > std::numeric_limits<K>::min()) {
      probes.push_back(static_cast<K>(k - 1));  // often absent
    }
    if (k < std::numeric_limits<K>::max()) {
      probes.push_back(static_cast<K>(k + 1));
    }
  }
  probes.push_back(std::numeric_limits<K>::min());
  probes.push_back(std::numeric_limits<K>::max());

  for (const K& key : probes) {
    const size_t expected = static_cast<size_t>(
        std::lower_bound(data.get() + begin, data.get() + end, key) -
        data.get());
    // Hints sweep the whole window plus both clamping directions.
    const size_t hints[] = {begin, end > 0 ? end - 1 : 0, (begin + end) / 2,
                            expected, expected + 3, 0, end + 100};
    const bool match = expected < end && data[expected] == key;
    for (const SearchPolicy policy : kAllPolicies) {
      for (const size_t hint : hints) {
        // The gallop policies report their bracket once, within the
        // window, and a matching index lies in [lo, hi].
        int calls = 0;
        size_t lo = 0, hi = 0;
        ASSERT_EQ(fitree::detail::BoundedLowerBound(
                      data.get(), begin, end, hint, key, policy,
                      [&](size_t l, size_t h) {
                        ++calls;
                        lo = l;
                        hi = h;
                      }),
                  expected)
            << fitree::SearchPolicyName(policy) << " n=" << n
            << " begin=" << begin << " hint=" << hint;
        const bool gallops = policy == SearchPolicy::kExponential ||
                             policy == SearchPolicy::kSimd;
        ASSERT_EQ(calls, gallops && begin < end ? 1 : 0)
            << fitree::SearchPolicyName(policy);
        if (calls == 0) continue;
        ASSERT_TRUE(begin <= lo && lo <= hi && hi <= end)
            << fitree::SearchPolicyName(policy) << " [" << lo << ", " << hi
            << ")";
        if (match) {
          ASSERT_TRUE(lo <= expected && expected <= hi)
              << fitree::SearchPolicyName(policy) << " [" << lo << ", " << hi
              << "] misses " << expected << " hint=" << hint;
        }
      }
    }
  }
}

template <typename K>
void DifferentialSweep() {
  std::mt19937_64 rng(0xF17EE5EED ^ sizeof(K));
  // Window sizes 0..130 cross every vector-width boundary and the
  // branchless-narrow threshold (kSimdWindowKeys = 128); unaligned begins
  // shift the window off any 32-byte alignment.
  for (size_t n = 0; n <= 130; ++n) {
    for (const size_t begin : {size_t{0}, size_t{1}, size_t{3}}) {
      CheckWindow<K>(MakeWindow<K>(n, &rng, /*sentinels=*/false), begin);
    }
  }
  // Min/max sentinel keys at several sizes (exercises the sign-flip bias
  // at both extremes of the domain).
  for (const size_t n : {size_t{1},  size_t{2},  size_t{4},  size_t{7},
                         size_t{16}, size_t{33}, size_t{130}}) {
    CheckWindow<K>(MakeWindow<K>(n, &rng, /*sentinels=*/true), 1);
  }
}

TEST(SearchPolicy, DifferentialInt64) { DifferentialSweep<int64_t>(); }
TEST(SearchPolicy, DifferentialUint64) { DifferentialSweep<uint64_t>(); }
TEST(SearchPolicy, DifferentialInt32) { DifferentialSweep<int32_t>(); }
TEST(SearchPolicy, DifferentialUint32) { DifferentialSweep<uint32_t>(); }

// Non-integral keys take the portable scalar fallback inside kSimd; the
// policy contract must hold there too.
TEST(SearchPolicy, DifferentialDoubleFallback) {
  std::mt19937_64 rng(77);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                         size_t{129}}) {
    std::vector<double> window(n);
    std::uniform_real_distribution<double> gap(0.0, 3.0);
    double cur = -1000.0;
    for (size_t i = 0; i < n; ++i) window[i] = (cur += gap(rng));
    CheckWindow<double>(window, 2);
  }
}

// Large windows force the branchless narrowing ahead of the vector count.
TEST(SearchPolicy, LargeWindowNarrowing) {
  std::mt19937_64 rng(123);
  const auto window = MakeWindow<int64_t>(100000, &rng, false);
  std::mt19937_64 probe_rng(321);
  std::uniform_int_distribution<size_t> pick(0, window.size() - 1);
  for (int i = 0; i < 2000; ++i) {
    const int64_t key = window[pick(probe_rng)] + (i % 5) - 2;
    const size_t expected = static_cast<size_t>(
        std::lower_bound(window.begin(), window.end(), key) - window.begin());
    for (const SearchPolicy policy : kAllPolicies) {
      ASSERT_EQ(fitree::detail::BoundedLowerBound(window.data(), 0,
                                                  window.size(),
                                                  expected / 2, key, policy),
                expected);
    }
  }
}

// The strided kernel (disk-tree leaf records: {key, payload} pairs) counts
// the same as a scalar sweep, including at n values straddling the vector
// width, with the records staged in an exact-size allocation.
TEST(SearchPolicy, CountLessStridedPairs) {
  struct Record {
    int64_t key;
    uint64_t value;
  };
  static_assert(sizeof(Record) == 16);
  std::mt19937_64 rng(99);
  for (size_t n = 0; n <= 70; ++n) {
    std::unique_ptr<Record[]> recs(new Record[n > 0 ? n : 1]);
    int64_t cur = -50;
    for (size_t i = 0; i < n; ++i) {
      cur += static_cast<int64_t>(rng() % 4);
      recs[i] = Record{cur, rng()};
    }
    const int64_t lo = n > 0 ? recs[0].key - 1 : 0;
    const int64_t hi = n > 0 ? recs[n - 1].key + 1 : 1;
    for (int64_t key = lo; key <= hi; ++key) {
      size_t expected = 0;
      for (size_t i = 0; i < n; ++i) expected += recs[i].key < key ? 1 : 0;
      ASSERT_EQ(fitree::simd::CountLessStrided(recs.get(), sizeof(Record), n,
                                               key),
                expected)
          << "n=" << n << " key=" << key;
    }
  }
}

// FlatKeyIndex::FloorIndex against the upper_bound oracle over several
// distributions, including ones hostile to interpolation.
TEST(FlatDirectory, FloorMatchesOracle) {
  std::mt19937_64 rng(2024);
  std::vector<std::vector<int64_t>> cases;
  cases.push_back({});            // empty
  cases.push_back({42});          // single key
  cases.push_back({-5, 0, 5});    // tiny
  {
    std::vector<int64_t> uniform;  // interpolation-friendly
    for (int64_t i = 0; i < 4000; ++i) uniform.push_back(i * 17);
    cases.push_back(std::move(uniform));
  }
  {
    std::vector<int64_t> skewed;  // exponential gaps defeat the model
    int64_t cur = 1;
    for (int i = 0; i < 60; ++i) {
      skewed.push_back(cur);
      cur += (int64_t{1} << std::min(i, 40));
    }
    cases.push_back(std::move(skewed));
  }
  {
    std::vector<int64_t> clustered;  // dense runs separated by chasms
    int64_t base = -1'000'000;
    for (int c = 0; c < 20; ++c) {
      for (int i = 0; i < 100; ++i) clustered.push_back(base + i);
      base += 10'000'000;
    }
    cases.push_back(std::move(clustered));
  }
  cases.push_back({std::numeric_limits<int64_t>::min(), -1, 0, 1,
                   std::numeric_limits<int64_t>::max()});

  for (const auto& keys : cases) {
    FlatKeyIndex<int64_t> index(keys);
    EXPECT_EQ(index.size(), keys.size());
    std::vector<int64_t> probes = keys;
    for (const int64_t k : keys) {
      if (k > std::numeric_limits<int64_t>::min()) probes.push_back(k - 1);
      if (k < std::numeric_limits<int64_t>::max()) probes.push_back(k + 1);
    }
    probes.push_back(std::numeric_limits<int64_t>::min());
    probes.push_back(std::numeric_limits<int64_t>::max());
    for (int i = 0; i < 1000; ++i) {
      probes.push_back(static_cast<int64_t>(rng()));
    }
    for (const int64_t probe : probes) {
      const auto it = std::upper_bound(keys.begin(), keys.end(), probe);
      const size_t expected = it == keys.begin()
                                  ? FlatKeyIndex<int64_t>::kNone
                                  : static_cast<size_t>(it - keys.begin()) - 1;
      ASSERT_EQ(index.FloorIndex(probe), expected) << "probe " << probe;
    }
  }
}

// Payload of the floor entry for `key` through FloorIndex + value_at;
// records a failure (and returns -1) when `key` has no floor.
int FloorValue(const FlatDirectory<int64_t, int>& dir, int64_t key) {
  const size_t i = dir.FloorIndex(key);
  EXPECT_NE(i, kNoFloor) << "key " << key;
  return i == kNoFloor ? -1 : dir.value_at(i);
}

// Splice keeps the keys, payloads, and interpolation model consistent
// through the mutation patterns the buffered tree's merges produce.
TEST(FlatDirectory, SpliceMaintainsFloorAndValues) {
  FlatDirectory<int64_t, int> dir;
  dir.BulkLoad({10, 20, 30, 40}, {1, 2, 3, 4});
  ASSERT_EQ(dir.size(), 4u);
  EXPECT_EQ(dir.FloorIndex(5), kNoFloor);
  EXPECT_EQ(FloorValue(dir, 25), 2);

  // One-for-one replacement (common merge): in-place overwrite.
  const int64_t k21[] = {21};
  const int v21[] = {20};
  dir.Splice(1, 1, k21, v21);
  EXPECT_EQ(FloorValue(dir, 25), 20);
  EXPECT_EQ(FloorValue(dir, 20), 1);  // floor moved left of the new key

  // One-to-many (merge split the segment).
  const int64_t grow[] = {22, 25, 28};
  const int grow_v[] = {50, 51, 52};
  dir.Splice(1, 1, grow, grow_v);
  ASSERT_EQ(dir.size(), 6u);
  EXPECT_EQ(FloorValue(dir, 24), 50);
  EXPECT_EQ(FloorValue(dir, 27), 51);
  EXPECT_EQ(FloorValue(dir, 100), 4);

  // Retire (merge deleted every key).
  dir.Splice(1, 3, {}, {});
  ASSERT_EQ(dir.size(), 3u);
  EXPECT_EQ(FloorValue(dir, 29), 1);
  EXPECT_EQ(FloorValue(dir, 35), 3);

  // Bootstrap insert into an empty directory.
  FlatDirectory<int64_t, int> empty;
  EXPECT_EQ(empty.FloorIndex(0), kNoFloor);
  const int64_t k7[] = {7};
  const int v7[] = {70};
  empty.Splice(0, 0, k7, v7);
  EXPECT_EQ(empty.FloorIndex(6), kNoFloor);
  EXPECT_EQ(FloorValue(empty, 7), 70);
}

}  // namespace
