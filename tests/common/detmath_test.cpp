#include "common/detmath.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/detmath_tables.hpp"
#include "common/rng.hpp"

namespace aropuf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kMinOverdrive = 0.05;  // circuit/delay_model.hpp

/// The exponents the library raises to: NBTI's n = 1/6 and its inverse 6,
/// HCI's m, the alpha-power law's alpha (and 2 at its upper bound) and the
/// mobility exponent.
const std::vector<double>& physics_exponents() {
  static const std::vector<double> ys = {1.0 / 6.0, 0.45, 1.3, 1.5, 2.0, 6.0};
  return ys;
}

/// |got - exact| in units of the last place of the double nearest `exact`.
double ulp_error(double got, long double exact) {
  const double nearest = std::fabs(static_cast<double>(exact));
  const double ulp = std::nextafter(nearest, kInf) - nearest;
  return static_cast<double>(std::fabs(static_cast<long double>(got) - exact) / ulp);
}

bool long_double_is_wide() { return std::numeric_limits<long double>::digits >= 64; }

/// `count` draws of `draw` through `f` against `ref`; returns the worst
/// ULP error.
double worst_ulp(int count, const std::function<double(Xoshiro256&)>& draw,
                 const std::function<double(double)>& f,
                 const std::function<long double(long double)>& ref, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  double worst = 0.0;
  for (int i = 0; i < count; ++i) {
    const double x = draw(rng);
    worst = std::max(worst, ulp_error(f(x), ref(static_cast<long double>(x))));
  }
  return worst;
}

std::function<double(Xoshiro256&)> uniform(double lo, double hi) {
  return [lo, hi](Xoshiro256& rng) { return rng.uniform(lo, hi); };
}

std::function<double(Xoshiro256&)> log_uniform(double lo, double hi) {
  return [lo, hi](Xoshiro256& rng) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
}

constexpr int kSamples = 200000;

TEST(DetmathTest, PowWithinBoundOverThePhysicsDomains) {
  if (!long_double_is_wide()) GTEST_SKIP() << "long double has fewer than 64 digits";
  struct Case {
    const char* what;
    std::function<double(Xoshiro256&)> draw;
    double y;
  };
  const std::vector<Case> cases = {
      {"overdrive^alpha", uniform(kMinOverdrive, 1.25), 1.3},
      {"overdrive^2", uniform(kMinOverdrive, 1.25), 2.0},
      {"mobility (T/T_nom)^1.5", uniform(0.6, 1.5), 1.5},
      {"NBTI t^(1/6), t up to 4e8 s", log_uniform(1e-3, 4e8), 1.0 / 6.0},
      {"HCI cycles^0.45", log_uniform(1e-6, 1e12), 0.45},
      {"NBTI inverse ratio^6", log_uniform(1e-3, 1e3), 6.0},
  };
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    const double y = c.y;
    const double worst = worst_ulp(
        kSamples, c.draw, [y](double x) { return detmath::pow(x, y); },
        [y](long double x) { return std::pow(x, static_cast<long double>(y)); }, seed++);
    EXPECT_LT(worst, 0.52) << c.what;
  }
}

TEST(DetmathTest, ExpWithinBoundOverItsCallersDomains) {
  if (!long_double_is_wide()) GTEST_SKIP() << "long double has fewer than 64 digits";
  const auto f = [](double x) { return detmath::exp(x); };
  const auto ref = [](long double x) { return std::exp(x); };
  EXPECT_LT(worst_ulp(kSamples, uniform(-40.0, 40.0), f, ref, 11), 0.52) << "Arrhenius";
  EXPECT_LT(worst_ulp(kSamples, uniform(-16.0, 0.0), f, ref, 12), 0.52) << "spatial window";
  EXPECT_LT(worst_ulp(kSamples, uniform(-detmath::kMaxExpArg, detmath::kMaxExpArg), f, ref, 13),
            0.52)
      << "whole domain";
}

TEST(DetmathTest, LogWithinBoundOverItsCallersDomains) {
  if (!long_double_is_wide()) GTEST_SKIP() << "long double has fewer than 64 digits";
  const auto f = [](double x) { return detmath::log(x); };
  const auto ref = [](long double x) { return std::log(x); };
  EXPECT_LT(worst_ulp(kSamples, uniform(0.0, 1.0), f, ref, 21), 0.52) << "(0, 1)";
  EXPECT_LT(worst_ulp(kSamples, log_uniform(0x1p-54, 1.0), f, ref, 22), 0.52) << "Box-Muller";
  EXPECT_LT(worst_ulp(kSamples, uniform(0.99, 1.01), f, ref, 23), 0.52) << "near 1";
  EXPECT_LT(worst_ulp(kSamples, log_uniform(1e-300, 1e300), f, ref, 24), 0.52) << "wide";
}

TEST(DetmathTest, SinAndCosWithinBoundOverTheirCallersDomains) {
  if (!long_double_is_wide()) GTEST_SKIP() << "long double has fewer than 64 digits";
  const auto sin = [](double x) { return detmath::sin(x); };
  const auto cos = [](double x) { return detmath::cos(x); };
  const auto sin_ref = [](long double x) { return std::sin(x); };
  const auto cos_ref = [](long double x) { return std::cos(x); };
  const double two_pi = 2.0 * M_PI;
  EXPECT_LT(worst_ulp(kSamples, uniform(0.0, two_pi), cos, cos_ref, 31), 0.85) << "Box-Muller";
  EXPECT_LT(worst_ulp(kSamples, uniform(0.9, two_pi + 1.3), sin, sin_ref, 32), 0.85) << "ripple";
  const auto wide = uniform(-detmath::kMaxTrigArg, detmath::kMaxTrigArg);
  EXPECT_LT(worst_ulp(kSamples, wide, sin, sin_ref, 33), 0.85) << "sin, whole domain";
  EXPECT_LT(worst_ulp(kSamples, wide, cos, cos_ref, 34), 0.85) << "cos, whole domain";
}

TEST(DetmathTest, ZeroBaseAndContractFailures) {
  for (const double y : physics_exponents()) EXPECT_EQ(detmath::pow(0.0, y), 0.0);
  EXPECT_EQ(detmath::pow(1.0, 1.3), 1.0);
  EXPECT_EQ(detmath::exp(0.0), 1.0);
  EXPECT_EQ(detmath::log(1.0), 0.0);
  EXPECT_EQ(detmath::sin(0.0), 0.0);
  EXPECT_EQ(detmath::cos(0.0), 1.0);

  for (const double x : {-1.0, -0.0, 0x1p-1030, kInf, -kInf, kNan}) {
    EXPECT_THROW((void)detmath::pow(x, 1.3), std::invalid_argument) << x;
    EXPECT_THROW((void)detmath::log(x), std::invalid_argument) << x;
  }
  for (const double y : {0.0, -1.0, kInf, kNan}) {
    EXPECT_THROW((void)detmath::pow(0.5, y), std::invalid_argument) << y;
  }
  EXPECT_THROW((void)detmath::pow(1e300, 6.0), std::invalid_argument);  // |y ln x| > 512
  EXPECT_THROW((void)detmath::log(0.0), std::invalid_argument);
  for (const double x : {513.0, -513.0, kInf, kNan}) {
    EXPECT_THROW((void)detmath::exp(x), std::invalid_argument) << x;
  }
  for (const double x : {0x1p20, -0x1p20, kInf, kNan}) {
    EXPECT_THROW((void)detmath::sin(x), std::invalid_argument) << x;
    EXPECT_THROW((void)detmath::cos(x), std::invalid_argument) << x;
  }
}

#if defined(AROPUF_SIMD_ENABLED)

/// pow_avx2 against the scalar pow, bitwise, for every physics exponent.
void expect_lanes_match_scalar(const std::vector<double>& xs) {
  std::vector<double> lanes(xs.size());
  for (const double y : physics_exponents()) {
    detmath::pow_avx2(xs, y, lanes);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double scalar = detmath::pow(xs[i], y);
      if (std::bit_cast<std::uint64_t>(lanes[i]) != std::bit_cast<std::uint64_t>(scalar)) {
        if (mismatches++ < 5) ADD_FAILURE() << "pow(" << xs[i] << ", " << y << ")";
      }
    }
    EXPECT_EQ(mismatches, 0U) << "y = " << y;
  }
}

TEST(DetmathTest, FourLanePowEqualsScalarOnRandomInputs) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  Xoshiro256 rng(41);
  std::vector<double> xs(1'000'000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Most draws in the overdrive domain the kernel sees, the rest spread
    // over twelve decades.
    xs[i] = (i % 4 != 3) ? rng.uniform(kMinOverdrive, 1.25) : std::exp(rng.uniform(-14.0, 14.0));
  }
  expect_lanes_match_scalar(xs);
}

TEST(DetmathTest, FourLanePowEqualsScalarOnTableEdges) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  std::vector<double> xs = {1.0, kMinOverdrive, 0.0};
  for (int e = -20; e <= 20; ++e) xs.push_back(std::ldexp(1.0, e));
  // Every log subinterval's first pattern and its neighbours, at several
  // binary exponents.
  for (std::uint64_t i = 0; i <= detmath::detail::kTableSize; ++i) {
    const std::uint64_t edge = detmath::detail::kLogOffset + (i << 45);
    for (const std::int64_t exponent_shift : {-3, -1, 0, 1, 4}) {
      const std::uint64_t moved = edge + (static_cast<std::uint64_t>(exponent_shift) << 52);
      for (const std::uint64_t b : {moved - 1, moved, moved + 1}) {
        xs.push_back(std::bit_cast<double>(b));
      }
    }
  }
  while (xs.size() % 4 != 0) xs.push_back(0.5);
  expect_lanes_match_scalar(xs);
}

TEST(DetmathTest, FourLanePowFailsTheContractLikeScalar) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  const std::vector<double> xs = {0.5, -0.5, 0.7, 0.9};
  std::vector<double> out(xs.size());
  EXPECT_THROW(detmath::pow_avx2(xs, 1.3, out), std::invalid_argument);
  const std::vector<double> valid = {0.5, 0.6, 0.7, 0.8};
  EXPECT_THROW(detmath::pow_avx2(valid, kNan, out), std::invalid_argument);
}

/// polar_factors_avx2 against the scalar polar_factor, bitwise.
void expect_factor_lanes_match_scalar(const std::vector<double>& s) {
  std::vector<double> lanes(s.size());
  detmath::polar_factors_avx2(s, lanes);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double scalar = detmath::polar_factor(s[i]);
    if (std::bit_cast<std::uint64_t>(lanes[i]) != std::bit_cast<std::uint64_t>(scalar)) {
      if (mismatches++ < 5) ADD_FAILURE() << "polar_factor(" << s[i] << ")";
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(DetmathTest, FourLanePolarFactorEqualsScalarOnRandomInputs) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  Xoshiro256 rng(43);
  std::vector<double> s;
  s.reserve(1'000'000);
  while (s.size() < 1'000'000) {
    // Uniform on (0, 1), as an accepted u^2 + v^2 is, and every fourth draw
    // log-uniform down to the smallest accepted s, 2^-104.
    const double x = (s.size() % 4 != 3) ? rng.uniform() : std::exp2(rng.uniform(-104.0, 0.0));
    if (x > 0.0) s.push_back(x);
  }
  expect_factor_lanes_match_scalar(s);
}

TEST(DetmathTest, FourLanePolarFactorEqualsScalarOnTableEdges) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  std::vector<double> s = {0x1p-104, std::nextafter(1.0, 0.0), 0.5};
  // Every log subinterval's first pattern and its neighbours, at binary
  // exponents that keep s in [2^-104, 1).
  for (std::uint64_t i = 0; i <= detmath::detail::kTableSize; ++i) {
    const std::uint64_t edge = detmath::detail::kLogOffset + (i << 45);
    for (const std::int64_t exponent_shift : {0, -1, -2, -7, -50, -103}) {
      const std::uint64_t moved = edge + (static_cast<std::uint64_t>(exponent_shift) << 52);
      for (const std::uint64_t b : {moved - 1, moved, moved + 1}) {
        const double x = std::bit_cast<double>(b);
        if (x >= 0x1p-104 && x < 1.0) s.push_back(x);
      }
    }
  }
  expect_factor_lanes_match_scalar(s);
}

#endif  // AROPUF_SIMD_ENABLED

TEST(DetmathTest, PolarFactorsEqualScalarOnEitherPath) {
  // Whichever path this CPU takes, and in place too.
  Xoshiro256 rng(47);
  std::vector<double> s(1001);  // not a multiple of four: a scalar tail
  for (double& x : s) x = rng.polar_pair().s;
  std::vector<double> factors(s.size());
  detmath::polar_factors(s, factors);
  std::vector<double> in_place = s;
  detmath::polar_factors(in_place, in_place);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint64_t scalar = std::bit_cast<std::uint64_t>(detmath::polar_factor(s[i]));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(factors[i]), scalar) << s[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(in_place[i]), scalar) << s[i];
  }
  std::vector<double> short_of_one(s.size() - 1);
  EXPECT_THROW(detmath::polar_factors(s, short_of_one), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
