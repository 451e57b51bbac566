#include "ecc/gf2m.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace aropuf {
namespace {

TEST(GF2mTest, ConstructsAllSupportedFields) {
  for (int m = 3; m <= 14; ++m) {
    const GF2m field(m);
    EXPECT_EQ(field.m(), m);
    EXPECT_EQ(field.size(), 1U << m);
    EXPECT_EQ(field.order(), (1U << m) - 1);
  }
}

TEST(GF2mTest, RejectsUnsupportedDegrees) {
  EXPECT_THROW(GF2m(2), std::invalid_argument);
  EXPECT_THROW(GF2m(15), std::invalid_argument);
}

TEST(GF2mTest, RejectsNonPrimitivePolynomial) {
  // x^4 + 1 is not even irreducible.
  EXPECT_THROW(GF2m(4, 0x11), std::invalid_argument);
  // Wrong degree.
  EXPECT_THROW(GF2m(4, 0x0B), std::invalid_argument);
}

TEST(GF2mTest, AdditionIsXor) {
  EXPECT_EQ(GF2m::add(0b1010, 0b0110), 0b1100U);
  EXPECT_EQ(GF2m::add(7, 7), 0U);
}

TEST(GF2mTest, Gf8MultiplicationTable) {
  // GF(8) with x^3 + x + 1: alpha = 2, alpha^3 = alpha + 1 = 3.
  const GF2m f(3);
  EXPECT_EQ(f.mul(2, 2), 4U);
  EXPECT_EQ(f.mul(2, 4), 3U);   // alpha^3 = x + 1
  EXPECT_EQ(f.mul(4, 4), 6U);   // alpha^6
  EXPECT_EQ(f.mul(0, 5), 0U);
  EXPECT_EQ(f.mul(1, 5), 5U);
}

TEST(GF2mTest, MultiplicationIsCommutativeAndAssociative) {
  const GF2m f(8);
  for (std::uint32_t a = 1; a < 40; ++a) {
    for (std::uint32_t b = 1; b < 40; ++b) {
      EXPECT_EQ(f.mul(a, b), f.mul(b, a));
      EXPECT_EQ(f.mul(f.mul(a, b), 7), f.mul(a, f.mul(b, 7)));
    }
  }
}

TEST(GF2mTest, DistributesOverAddition) {
  const GF2m f(8);
  for (std::uint32_t a = 1; a < 30; ++a) {
    for (std::uint32_t b = 0; b < 30; ++b) {
      EXPECT_EQ(f.mul(a, GF2m::add(b, 17)), GF2m::add(f.mul(a, b), f.mul(a, 17)));
    }
  }
}

TEST(GF2mTest, InverseRoundTrips) {
  const GF2m f(8);
  for (std::uint32_t a = 1; a < f.size(); ++a) {
    EXPECT_EQ(f.mul(a, f.inv(a)), 1U);
  }
}

TEST(GF2mTest, DivisionIsMultiplicationByInverse) {
  const GF2m f(6);
  for (std::uint32_t a = 0; a < f.size(); ++a) {
    for (std::uint32_t b = 1; b < 20; ++b) {
      EXPECT_EQ(f.div(a, b), f.mul(a, f.inv(b)));
    }
  }
}

TEST(GF2mTest, ZeroHasNoInverse) {
  const GF2m f(5);
  EXPECT_THROW((void)f.inv(0), std::invalid_argument);
  EXPECT_THROW((void)f.div(3, 0), std::invalid_argument);
  EXPECT_THROW((void)f.log(0), std::invalid_argument);
}

TEST(GF2mTest, AlphaPowersCycle) {
  const GF2m f(5);
  EXPECT_EQ(f.alpha_pow(0), 1U);
  EXPECT_EQ(f.alpha_pow(1), 2U);
  EXPECT_EQ(f.alpha_pow(f.order()), 1U);
  EXPECT_EQ(f.alpha_pow(-1), f.alpha_pow(f.order() - 1));
  EXPECT_EQ(f.alpha_pow(2 * static_cast<std::int64_t>(f.order()) + 3), f.alpha_pow(3));
}

TEST(GF2mTest, LogInvertsAlphaPow) {
  const GF2m f(7);
  for (std::uint32_t e = 0; e < f.order(); ++e) {
    EXPECT_EQ(f.log(f.alpha_pow(e)), e);
  }
}

TEST(GF2mTest, PowMatchesRepeatedMultiplication) {
  const GF2m f(6);
  for (std::uint32_t a = 1; a < 10; ++a) {
    std::uint32_t acc = 1;
    for (std::uint64_t e = 0; e < 12; ++e) {
      EXPECT_EQ(f.pow(a, e), acc);
      acc = f.mul(acc, a);
    }
  }
  EXPECT_EQ(f.pow(0, 0), 1U);
  EXPECT_EQ(f.pow(0, 5), 0U);

  // Exponent past 2^50: log(a) * e must not wrap 64 bits.  Oracle: a^(2^63)
  // by 63 squarings.
  const GF2m g(4);
  const std::uint32_t a = g.alpha_pow(3);
  std::uint32_t squared = a;
  for (int i = 0; i < 63; ++i) squared = g.mul(squared, squared);
  EXPECT_EQ(g.pow(a, std::uint64_t{1} << 63), squared);
}

TEST(GF2mTest, OperandRangeChecked) {
  const GF2m f(3);
  EXPECT_THROW((void)f.mul(8, 1), std::invalid_argument);
  EXPECT_THROW((void)f.inv(8), std::invalid_argument);
}

TEST(GF2mTest, FermatPropertyHolds) {
  // a^(2^m - 1) = 1 for all nonzero a.
  const GF2m f(9);
  for (std::uint32_t a = 1; a < 100; ++a) {
    EXPECT_EQ(f.pow(a, f.order()), 1U);
  }
}

}  // namespace
}  // namespace aropuf
