/// Exactness and order-invariance of ExactDoubleSum. It carries the
/// candidate index's bit-identical-replay guarantee: candidate-set
/// thresholds are evaluated without rounding, and merging per-shard
/// accumulators in ANY partition must reproduce the sequential accumulation
/// exactly.
#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace easeml {
namespace {

TEST(ExactDoubleSumTest, EmptySumIsZero) {
  ExactDoubleSum sum;
  EXPECT_EQ(sum.Sign(), 0);
  EXPECT_EQ(sum.Value(), 0.0);
  // 0 * n == empty sum.
  EXPECT_EQ(sum.CompareScaled(0.0, 17), 0);
  EXPECT_EQ(sum.CompareScaled(1.0, 3), 1);
  EXPECT_EQ(sum.CompareScaled(-1.0, 3), -1);
}

TEST(ExactDoubleSumTest, PointOneTimesThreeIsExact) {
  // Naive double arithmetic gets this wrong: 0.1 + 0.1 + 0.1 != 3 * 0.1
  // and (0.1*3)/3 > 0.1. The exact comparison must report equality.
  ExactDoubleSum sum;
  sum.Add(0.1);
  sum.Add(0.1);
  sum.Add(0.1);
  EXPECT_EQ(sum.CompareScaled(0.1, 3), 0);
  EXPECT_EQ(sum.CompareScaled(std::nextafter(0.1, 1.0), 3), 1);
  EXPECT_EQ(sum.CompareScaled(std::nextafter(0.1, 0.0), 3), -1);
}

TEST(ExactDoubleSumTest, CancellationIsExact) {
  ExactDoubleSum sum;
  sum.Add(1e300);
  sum.Add(1.0);
  sum.Add(-1e300);
  // Double arithmetic would have swallowed the 1.0 entirely.
  EXPECT_EQ(sum.Sign(), 1);
  EXPECT_EQ(sum.CompareScaled(1.0, 1), 0);
  sum.Add(-1.0);
  EXPECT_EQ(sum.Sign(), 0);
}

TEST(ExactDoubleSumTest, HandlesFullExponentRange) {
  ExactDoubleSum sum;
  const double kTiny = 5e-324;  // least subnormal
  sum.Add(kTiny);
  sum.Add(1e308);
  sum.Add(-1e308);
  EXPECT_EQ(sum.Sign(), 1);
  EXPECT_EQ(sum.CompareScaled(kTiny, 1), 0);
}

TEST(ExactDoubleSumTest, NegativeValuesAndSign) {
  ExactDoubleSum sum;
  sum.Add(-0.25);
  sum.Add(-0.5);
  EXPECT_EQ(sum.Sign(), -1);
  EXPECT_DOUBLE_EQ(sum.Value(), -0.75);
  EXPECT_EQ(sum.CompareScaled(-0.375, 2), 0);  // mean is exactly -0.375
}

TEST(ExactDoubleSumTest, ValueMatchesSimpleSums) {
  ExactDoubleSum sum;
  sum.Add(1.5);
  sum.Add(2.25);
  sum.Add(-0.75);
  EXPECT_DOUBLE_EQ(sum.Value(), 3.0);
}

TEST(ExactDoubleSumTest, OrderAndPartitionInvariance) {
  Rng rng(20260730);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    // Wildly varying magnitudes to provoke rounding differences in any
    // floating-point accumulation order.
    const double mag = std::ldexp(rng.Uniform(-1.0, 1.0),
                                  rng.UniformInt(-60, 60));
    values.push_back(mag);
  }
  ExactDoubleSum sequential;
  for (double v : values) sequential.Add(v);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> shuffled = values;
    rng.Shuffle(shuffled);
    // Random partition into up to 7 "shards", each accumulated locally,
    // then merged by a plain left fold.
    const int shards = rng.UniformInt(1, 7);
    std::vector<ExactDoubleSum> parts(shards);
    for (double v : shuffled) parts[rng.UniformInt(0, shards - 1)].Add(v);
    ExactDoubleSum merged;
    for (const ExactDoubleSum& part : parts) merged.Merge(part);
    // Exact equality of the abstract sums: differences of the two
    // accumulators must vanish for every probe comparison.
    for (double probe : {values[0], values[7], 0.0, 1e-30, -3.25}) {
      for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{200}}) {
        EXPECT_EQ(merged.CompareScaled(probe, n),
                  sequential.CompareScaled(probe, n));
      }
    }
    EXPECT_EQ(merged.Value(), sequential.Value());  // bit-identical
    EXPECT_EQ(merged.Sign(), sequential.Sign());
  }
}

TEST(ExactDoubleSumTest, ManyAdditionsNormalizeCorrectly) {
  ExactDoubleSum sum;
  constexpr int kCount = 100000;
  for (int i = 0; i < kCount; ++i) sum.Add(0.125);  // exactly representable
  EXPECT_EQ(sum.CompareScaled(0.125, kCount), 0);
  EXPECT_DOUBLE_EQ(sum.Value(), 0.125 * kCount);
}

/// Checks the two-sided witness of `sum.MeanCut(n)`: the cut clears the
/// sum, its predecessor does not (unless the cut is the least finite
/// double). Returns whether the naive `Value() / n` estimate missed it.
bool ExpectCutIsBoundary(const ExactDoubleSum& sum, int64_t n) {
  constexpr double kMax = std::numeric_limits<double>::max();
  const double cut = sum.MeanCut(n);
  EXPECT_TRUE(std::isfinite(cut)) << "n=" << n;
  EXPECT_GE(sum.CompareScaled(cut, n), 0) << "cut=" << cut << " n=" << n;
  if (cut != -kMax) {
    const double below =
        std::nextafter(cut, -std::numeric_limits<double>::infinity());
    EXPECT_LT(sum.CompareScaled(below, n), 0) << "cut=" << cut << " n=" << n;
  }
  return sum.Value() / static_cast<double>(n) != cut;
}

TEST(ExactDoubleSumTest, MeanCutIsTheExactBoundary) {
  constexpr double kMax = std::numeric_limits<double>::max();
  Rng rng(20261019);
  // Value generators: mixed signs over a wide exponent range, subnormals,
  // magnitudes near DBL_MAX (whose sums overflow a double), and values on
  // a coarse grid (so exact means, hence ties at the cut, are common).
  const std::vector<std::function<double()>> families = {
      [&] {
        return std::ldexp(rng.Uniform(-1.0, 1.0), rng.UniformInt(-60, 60));
      },
      [&] {
        return std::ldexp(rng.Uniform(-1.0, 1.0), rng.UniformInt(-1074, -1000));
      },
      [&] {
        return (rng.Uniform() < 0.2 ? -1.0 : 1.0) * kMax *
               rng.Uniform(0.5, 1.0);
      },
      [&] { return 0.25 * rng.UniformInt(-8, 8); },
  };
  int estimate_missed = 0;
  int cases = 0;
  for (const auto& draw : families) {
    for (const int64_t n : {1, 2, 3, 7, 64, 1000, 100000}) {
      for (int trial = 0; trial < (n >= 1000 ? 2 : 40); ++trial) {
        ExactDoubleSum sum;
        for (int64_t i = 0; i < n; ++i) sum.Add(draw());
        estimate_missed += ExpectCutIsBoundary(sum, n);
        ++cases;
      }
    }
  }
  // The rounded mean lands off the cut often enough that the search, not
  // the estimate, is what the witnesses above check.
  EXPECT_GT(estimate_missed, cases / 10);

  // n copies of x have mean exactly x: the cut is x itself.
  for (const double x : {0.1, -0.3, 5e-324, -5e-324, 1.0, kMax, -kMax}) {
    for (const int64_t n : {1, 3, 1000}) {
      ExactDoubleSum sum;
      for (int64_t i = 0; i < n; ++i) sum.Add(x);
      EXPECT_EQ(sum.MeanCut(n), x) << "x=" << x << " n=" << n;
      ExpectCutIsBoundary(sum, n);
    }
  }
  // A zero mean cuts at +0.0, whatever the signs of the zeros added.
  ExactDoubleSum zeros;
  zeros.Add(-0.0);
  zeros.Add(0.5);
  zeros.Add(-0.5);
  EXPECT_FALSE(std::signbit(zeros.MeanCut(3)));
  EXPECT_EQ(zeros.MeanCut(3), 0.0);
  ExpectCutIsBoundary(zeros, 3);

  // The exact sum of three 0.1s lies halfway between two doubles and
  // rounds up, so the estimate lands one ulp above the mean; the cut must
  // still be 0.1 itself.
  ExactDoubleSum tenths;
  for (int i = 0; i < 3; ++i) tenths.Add(0.1);
  EXPECT_EQ(tenths.Value() / 3.0, std::nextafter(0.1, 1.0));
  EXPECT_EQ(tenths.MeanCut(3), 0.1);
}

}  // namespace
}  // namespace easeml
