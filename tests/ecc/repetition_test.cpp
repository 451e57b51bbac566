#include "ecc/repetition.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace aropuf {
namespace {

TEST(RepetitionTest, RejectsEvenOrNonPositiveFactors) {
  EXPECT_THROW(RepetitionCode(0), std::invalid_argument);
  EXPECT_THROW(RepetitionCode(2), std::invalid_argument);
  EXPECT_THROW(RepetitionCode(-3), std::invalid_argument);
  EXPECT_NO_THROW(RepetitionCode(1));
}

TEST(RepetitionTest, EncodeRepeatsEachBit) {
  const RepetitionCode code(3);
  const BitVector encoded = code.encode(BitVector::from_string("101"));
  EXPECT_EQ(encoded.to_string(), "111000111");
}

TEST(RepetitionTest, RateOneIsIdentity) {
  const RepetitionCode code(1);
  const BitVector msg = BitVector::from_string("1100101");
  EXPECT_EQ(code.encode(msg), msg);
  EXPECT_EQ(code.decode(msg), msg);
}

TEST(RepetitionTest, DecodeMajorityVotes) {
  const RepetitionCode code(3);
  // Groups: 110 -> 1, 001 -> 0, 111 -> 1.
  EXPECT_EQ(code.decode(BitVector::from_string("110001111")).to_string(), "101");

  // Groups that straddle 64-bit words (r = 3: bits 63..65; most r = 63
  // groups) or are longer than one (r = 65, 129), against a bit-by-bit
  // count; 127 and 130 groups end the output mid-word, and == also compares
  // its padding.
  Xoshiro256 rng(5);
  for (const std::size_t r : {1UL, 3UL, 5UL, 63UL, 65UL, 129UL}) {
    for (const std::size_t groups : {127UL, 130UL}) {
      BitVector word(r * groups);
      for (std::size_t i = 0; i < word.size(); ++i) word.set(i, rng.bernoulli(0.5));
      BitVector expected(groups);
      for (std::size_t b = 0; b < groups; ++b) {
        std::size_t ones = 0;
        for (std::size_t j = 0; j < r; ++j) ones += word.get(b * r + j) ? 1 : 0;
        expected.set(b, 2 * ones > r);
      }
      EXPECT_EQ(RepetitionCode(static_cast<int>(r)).decode(word), expected)
          << "r=" << r << " groups=" << groups;
    }
  }
}

TEST(RepetitionTest, RoundTripWithoutErrors) {
  const RepetitionCode code(5);
  const BitVector msg = BitVector::from_string("010011");
  EXPECT_EQ(code.decode(code.encode(msg)), msg);
}

TEST(RepetitionTest, CorrectsUpToHalfPerGroup) {
  const RepetitionCode code(5);
  const BitVector msg = BitVector::from_string("10");
  BitVector noisy = code.encode(msg);
  noisy.flip(0);
  noisy.flip(3);  // 2 of 5 copies of bit 0
  noisy.flip(7);  // 1 of 5 copies of bit 1
  EXPECT_EQ(code.decode(noisy), msg);
}

TEST(RepetitionTest, MajorityOfFlipsWins) {
  const RepetitionCode code(3);
  BitVector noisy = code.encode(BitVector::from_string("0"));
  noisy.flip(0);
  noisy.flip(2);
  EXPECT_EQ(code.decode(noisy).to_string(), "1");
}

TEST(RepetitionTest, DecodeRejectsNonMultipleLength) {
  const RepetitionCode code(3);
  EXPECT_THROW(code.decode(BitVector(7)), std::invalid_argument);
}

TEST(RepetitionTest, DecodedErrorRateFormula) {
  const RepetitionCode code(3);
  // P[>=2 of 3 flip] = 3p^2(1-p) + p^3.
  const double p = 0.1;
  EXPECT_NEAR(code.decoded_error_rate(p), 3 * p * p * (1 - p) + p * p * p, 1e-12);
  EXPECT_DOUBLE_EQ(code.decoded_error_rate(0.0), 0.0);
}

TEST(RepetitionTest, MoreRepetitionLowersErrorRate) {
  const double p = 0.08;
  double prev = 1.0;
  for (const int r : {1, 3, 5, 7, 9}) {
    const double rate = RepetitionCode(r).decoded_error_rate(p);
    EXPECT_LT(rate, prev + 1e-15);
    prev = rate;
  }
}

TEST(RepetitionTest, ErrorRateAboveHalfGetsAmplified) {
  // Majority voting amplifies error when the channel is worse than random.
  const RepetitionCode code(5);
  EXPECT_GT(code.decoded_error_rate(0.6), 0.6);
}

}  // namespace
}  // namespace aropuf
