#include "common/statistics.hpp"

#include <gtest/gtest.h>

#include <math.h>  // signgam (glibc)

#include <cmath>
#include <stdexcept>
#include <vector>

namespace aropuf {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum of squares 32 / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10 + i;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsNoop) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2U);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(HistogramTest, BinsSamplesCorrectly) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);
  h.add(0.15);
  h.add(0.15);
  h.add(0.95);
  h.add(0.55, 4);  // four samples in one call
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.count(1), 2U);
  EXPECT_EQ(h.count(5), 4U);
  EXPECT_EQ(h.count(9), 1U);
  EXPECT_EQ(h.total(), 8U);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.count(3), 1U);
  EXPECT_EQ(h.total(), 2U);
}

TEST(HistogramTest, BinGeometry) {
  Histogram h(0.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.25);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 1.75);
  EXPECT_THROW((void)h.bin_center(4), std::invalid_argument);
}

TEST(HistogramTest, AsciiBarsScaleToPeak) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.25);
  h.add(0.75);
  const auto lines = h.ascii(20);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0].size(), 20U);
  EXPECT_EQ(lines[1].size(), 2U);
}

TEST(PercentileTest, HandlesSimpleCases) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(PercentileTest, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(BinomialTest, CoefficientMatchesPascal) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 5)), 252.0, 1e-7);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(4, 4)), 1.0, 1e-12);
}

TEST(BinomialTest, PmfSumsToOne) {
  double total = 0.0;
  for (std::uint64_t k = 0; k <= 20; ++k) total += binomial_pmf(20, k, 0.3);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BinomialTest, PmfDegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 9, 1.0), 0.0);
}

TEST(BinomialTest, TailMatchesDirectSum) {
  const double direct = binomial_pmf(12, 9, 0.4) + binomial_pmf(12, 10, 0.4) +
                        binomial_pmf(12, 11, 0.4) + binomial_pmf(12, 12, 0.4);
  EXPECT_NEAR(binomial_tail_greater(12, 8, 0.4), direct, 1e-12);
}

TEST(BinomialTest, TailEdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_tail_greater(10, 10, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_greater(10, 12, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_greater(10, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_greater(10, 3, 1.0), 1.0);
  // P[X > 0] = 1 - (1-p)^n.
  EXPECT_NEAR(binomial_tail_greater(10, 0, 0.1), 1.0 - std::pow(0.9, 10), 1e-12);
}

TEST(BinomialTest, DeepTailStaysAccurate) {
  // P[Bin(255, 0.01) > 20] is astronomically small but must not underflow
  // to garbage; compare against a direct log-space sum of the first terms.
  const double tail = binomial_tail_greater(255, 20, 0.01);
  EXPECT_GT(tail, 0.0);
  EXPECT_LT(tail, 1e-12);
  const double first_term = binomial_pmf(255, 21, 0.01);
  EXPECT_GT(tail, first_term * 0.99);
  EXPECT_LT(tail, first_term * 2.0);
}

TEST(BinomialTest, LeftSideBranchConsistent) {
  // k far below the mean exercises the 1 - CDF branch.
  const double tail = binomial_tail_greater(100, 10, 0.5);
  double direct = 0.0;
  for (std::uint64_t i = 11; i <= 100; ++i) direct += binomial_pmf(100, i, 0.5);
  EXPECT_NEAR(tail, direct, 1e-9);
}

TEST(BinomialTest, CoefficientLeavesSigngamAlone) {
  // std::lgamma writes glibc's global signgam; log_binomial_coefficient runs
  // on pool workers (the ECC scheme search), so it must not touch it.
#if defined(__GLIBC__)
  constexpr int kSentinel = 12345;
  signgam = kSentinel;
  EXPECT_GT(log_binomial_coefficient(127, 10), 0.0);
  EXPECT_EQ(signgam, kSentinel);
#else
  GTEST_SKIP() << "signgam is a glibc global";
#endif
}

}  // namespace
}  // namespace aropuf
