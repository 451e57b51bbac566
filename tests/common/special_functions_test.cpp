#include "common/special_functions.hpp"

#include <gtest/gtest.h>

#include <math.h>  // signgam (glibc)

#include <cmath>
#include <stdexcept>

namespace aropuf {
namespace {

TEST(GammaTest, PAndQAreComplementary) {
  for (const double a : {0.5, 1.0, 2.5, 10.0}) {
    for (const double x : {0.1, 1.0, 3.0, 20.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaTest, IntegerShapeMatchesPoissonCdf) {
  // For integer a, Q(a, x) = P[Poisson(x) < a] = sum_{k<a} e^-x x^k / k!.
  const double x = 2.5;
  double poisson_cdf = 0.0;
  double term = std::exp(-x);
  for (int k = 0; k < 3; ++k) {
    poisson_cdf += term;
    term *= x / (k + 1);
  }
  EXPECT_NEAR(regularized_gamma_q(3.0, x), poisson_cdf, 1e-12);
}

TEST(GammaTest, HalfShapeMatchesErfc) {
  // Q(1/2, x) = erfc(sqrt(x)).
  for (const double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(regularized_gamma_q(0.5, x), std::erfc(std::sqrt(x)), 1e-12);
  }
}

TEST(GammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(2.0, 0.0), 1.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 50.0), 1.0, 1e-12);
}

TEST(GammaTest, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 10.0; x += 0.5) {
    const double p = regularized_gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(GammaTest, RejectsBadDomain) {
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)regularized_gamma_q(-2.0, 1.0), std::invalid_argument);
}

TEST(GammaTest, LogGammaMatchesStdLgammaBitwise) {
  // Same algorithm as std::lgamma, so E7's binomial tails keep their bits.
  for (double x = 0.25; x < 2000.0; x = x * 1.07 + 0.5) {
    EXPECT_EQ(log_gamma(x), std::lgamma(x)) << "x=" << x;
  }
  for (const double n : {1.0, 2.0, 128.0, 763.0, 1e6}) {
    EXPECT_EQ(log_gamma(n), std::lgamma(n)) << "n=" << n;
  }
}

TEST(GammaTest, IncompleteGammaLeavesSigngamAlone) {
#if defined(__GLIBC__)
  constexpr int kSentinel = 12345;
  signgam = kSentinel;
  (void)regularized_gamma_p(2.5, 1.0);
  (void)regularized_gamma_q(2.5, 7.0);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(std::acos(-1.0)), 1e-15);
  EXPECT_EQ(signgam, kSentinel);
#else
  GTEST_SKIP() << "signgam is a glibc global";
#endif
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 2e-4);
}

TEST(NormalQuantileTest, InvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8) << "p=" << p;
  }
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-7);
  EXPECT_NEAR(normal_quantile(0.95), 1.644853627, 1e-7);
}

TEST(NormalQuantileTest, RejectsBadDomain) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
