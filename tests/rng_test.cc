#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/ks_test.h"

namespace vusion {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values reachable
}

TEST(RngTest, StateRoundTripResumesIdenticalStream) {
  Rng a(1234);
  for (int i = 0; i < 17; ++i) {
    (void)a.Next();
  }
  // Odd gaussian count leaves the Box-Muller spare cached, so the round trip
  // must carry it: a restored generator that recomputed the pair would emit a
  // different (shifted) stream.
  (void)a.NextGaussian();
  const Rng::State snap = a.state();
  Rng b(999);
  b.RestoreState(snap);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
    EXPECT_DOUBLE_EQ(a.NextGaussian(), b.NextGaussian());
  }
}

TEST(RngTest, StateCapturesSpareGaussianFlag) {
  Rng rng(77);
  EXPECT_FALSE(rng.state().has_spare_gaussian);
  (void)rng.NextGaussian();
  EXPECT_TRUE(rng.state().has_spare_gaussian);
  (void)rng.NextGaussian();
  EXPECT_FALSE(rng.state().has_spare_gaussian);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.Fork();
  // The child stream should not replay the parent stream.
  Rng parent_copy(9);
  [[maybe_unused]] Rng discarded = parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (child.Next() == a.Next()) ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<std::uint32_t> values(100);
  for (std::uint32_t i = 0; i < 100; ++i) {
    values[i] = i;
  }
  std::vector<std::uint32_t> shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_FALSE(std::equal(values.begin(), values.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(values, shuffled);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) {
    samples.push_back(rng.NextLogNormal(100.0, 0.1));
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  EXPECT_NEAR(samples[10000], 100.0, 2.0);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundTest, NextBelowRespectsBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(23 + bound);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST_P(RngBoundTest, NextBelowCoversRangeRoughlyUniformly) {
  const std::uint64_t bound = GetParam();
  Rng rng(29 + bound);
  const int n = 20000;
  if (bound > 64) {
    // Too many values to count each one: compare NextBelow(bound)/bound against
    // an evenly spaced sample of [0, 1) with the two-sample KS test instead.
    std::vector<double> drawn;
    std::vector<double> even;
    drawn.reserve(n);
    even.reserve(n);
    for (int i = 0; i < n; ++i) {
      drawn.push_back(static_cast<double>(rng.NextBelow(bound)) / static_cast<double>(bound));
      even.push_back((i + 0.5) / n);
    }
    const KsResult ks = KsTwoSample(std::move(drawn), std::move(even));
    EXPECT_GT(ks.p_value, 0.01) << "D=" << ks.statistic;
    return;
  }
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextBelow(bound)];
  }
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_GT(counts[v], expected * 0.7) << "value " << v;
    EXPECT_LT(counts[v], expected * 1.3) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1000, 1u << 20,
                                           (std::uint64_t{1} << 40) + 17));

}  // namespace
}  // namespace vusion
