#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "base/cpu_features.hpp"
#include "base/radix_sort.hpp"
#include "base/random.hpp"
#include "base/stats.hpp"

namespace manymap {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformCoversAllValues) {
  Rng r(11);
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng r(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = r.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= v == -2;
    hi |= v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, GeometricMean) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(0.25));
  // mean of geometric (failures before success) = (1-p)/p = 3
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, WeightedChoiceRespectWeights) {
  Rng r(21);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[r.weighted_choice(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(Stats, Summary) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
}

TEST(Stats, SummaryEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Stats, NearestRankSingleSample) {
  // With one observation, every percentile is that observation — linear
  // interpolation agrees here, but this pins the sparse-reservoir contract.
  const std::vector<double> xs{7.5};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.50), 7.5);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.99), 7.5);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 1.0), 7.5);
}

TEST(Stats, NearestRankTwoSamples) {
  // The interpolating definition reports p99 = 1.0*0.02 + 100.0*0.98 =
  // 98.02 — a latency no request experienced. Nearest-rank reports the
  // observed maximum.
  const std::vector<double> xs{100.0, 1.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.50), 1.0);   // rank ceil(1.0) = 1
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.99), 100.0); // rank ceil(1.98) = 2
}

TEST(Stats, NearestRankNinetyNineSamples) {
  // 99 samples 1..99: p99 rank = ceil(0.99*99) = ceil(98.01) = 99 -> 99.0;
  // p50 rank = ceil(49.5) = 50 -> 50.0.
  std::vector<double> xs;
  for (int i = 99; i >= 1; --i) xs.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 0.01), 1.0);
}

TEST(CpuFeatures, Sse2PresentOnX86) {
#if defined(__x86_64__)
  EXPECT_TRUE(cpu_features().sse2);
#else
  GTEST_SKIP();
#endif
}

TEST(Common, RoundUpCeilDiv) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(ceil_div(9, 8), 2u);
  EXPECT_EQ(ceil_div(8, 8), 1u);
}

TEST(RadixSort, MatchesStableSortWhateverDigitsVary) {
  // (key, input index) pairs: ties must keep input order. Keys vary in the
  // low `bits` bits above a constant high part, so some digits are skipped
  // and the result lands in either buffer.
  Rng rng(17);
  for (const u32 bits : {0u, 1u, 5u, 11u, 12u, 22u, 30u, 40u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3000}}) {
      std::vector<std::pair<u64, u32>> items(n), scratch(n);
      for (std::size_t i = 0; i < n; ++i) {
        const u64 low = bits == 0 ? 0 : rng.next_u64() & ((u64{1} << bits) - 1) & ~u64{3};
        items[i] = {(u64{0x5a5} << 48) | low, static_cast<u32>(i)};
      }
      auto want = items;
      std::stable_sort(want.begin(), want.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      const auto* sorted = radix_sort(items.data(), scratch.data(), n, 64,
                                      [](const std::pair<u64, u32>& x) { return x.first; });
      ASSERT_TRUE(sorted == items.data() || sorted == scratch.data());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), sorted)) << bits << " bits, n=" << n;
    }
  }
}

}  // namespace
}  // namespace manymap
