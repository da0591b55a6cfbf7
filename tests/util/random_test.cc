#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pinocchio {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-5.0, 17.5);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 17.5);
  }
}

TEST(RngTest, UniformIntInclusiveBoundsAndCoverage) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(42, 42), 42);
  }
}

// UniformInt's rejection limit is computed with one division fewer than
// the textbook (2^64 - 1) - ((2^64 - 1) % range + 1) % range; the draws
// (which seed every generated dataset) must stay identical to it.
TEST(RngTest, UniformIntMatchesTextbookRejection) {
  const auto reference = [](Rng& rng, int64_t lo, int64_t hi) {
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    const uint64_t limit = (~0ull) - ((~0ull) % range + 1) % range;
    uint64_t v;
    do {
      v = rng.Next();
    } while (v > limit);
    return lo + static_cast<int64_t>(v % range);
  };
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 0},          {0, 1},           {3, 9},
      {-5, 5},         {0, 2358},        {0, (int64_t{1} << 32) - 1},
      {0, kMax},       {-kMax, kMax},    {0, (kMax / 3) * 2}};
  Rng fast(77ull), slow(77ull);
  for (int rep = 0; rep < 2000; ++rep) {
    for (const auto& [lo, hi] : ranges) {
      ASSERT_EQ(fast.UniformInt(lo, hi), reference(slow, lo, hi))
          << "[" << lo << ", " << hi << "] rep " << rep;
    }
  }
}

TEST(RngTest, UniformIntUnbiasedModulo) {
  // Frequency of each residue should be near-uniform (chi-squared style
  // loose bound).
  Rng rng(23);
  const int64_t k = 10;
  std::vector<int> counts(k, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.UniformInt(0, k - 1))];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / static_cast<double>(k),
                5.0 * std::sqrt(static_cast<double>(n) / k));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(4.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, PowerLawIntStaysInRange) {
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.PowerLawInt(3, 661, 1.5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 661);
  }
}

TEST(RngTest, PowerLawIntIsSkewedTowardsLow) {
  Rng rng(43);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.PowerLawInt(1, 1000, 2.0) <= 10) ++low;
  }
  // With alpha=2 the mass below 10 is ~90%.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(47);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]), n / 4.0, 500.0);
  EXPECT_NEAR(static_cast<double>(counts[2]), 3.0 * n / 4.0, 500.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleActuallyMoves) {
  Rng rng(59);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i;
  const std::vector<int> before = v;
  rng.Shuffle(v);
  EXPECT_NE(v, before);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(61);
  const auto sample = rng.SampleWithoutReplacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 100u);
  for (size_t idx : sample) EXPECT_LT(idx, 1000u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(67);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(71);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 0).empty());
}

// Property sweep: PowerLawInt's empirical mean decreases with alpha.
class PowerLawAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerLawAlphaTest, MeanWithinBounds) {
  const double alpha = GetParam();
  Rng rng(static_cast<uint64_t>(alpha * 1000));
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.PowerLawInt(1, 1000, alpha));
  }
  const double mean = sum / n;
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 501.0);  // strictly below the uniform mean
}

INSTANTIATE_TEST_SUITE_P(Alphas, PowerLawAlphaTest,
                         ::testing::Values(1.2, 1.5, 2.0, 2.5, 3.0));

}  // namespace
}  // namespace pinocchio
