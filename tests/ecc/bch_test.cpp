#include "ecc/bch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "ecc/gf2m.hpp"

namespace aropuf {
namespace {

BitVector random_message(std::size_t k, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  BitVector m(k);
  for (std::size_t i = 0; i < k; ++i) m.set(i, rng.bernoulli(0.5));
  return m;
}

BitVector with_random_errors(const BitVector& word, int errors, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  BitVector noisy = word;
  std::set<std::uint64_t> positions;
  while (positions.size() < static_cast<std::size_t>(errors)) {
    positions.insert(rng.bounded(word.size()));
  }
  for (const auto p : positions) noisy.flip(static_cast<std::size_t>(p));
  return noisy;
}

TEST(BchCodeTest, ClassicParameterTable) {
  // Well-known (n, k, t) triples of binary primitive BCH codes.
  EXPECT_EQ(BchCode(4, 1).k(), 11U);   // (15, 11, 1) Hamming
  EXPECT_EQ(BchCode(4, 2).k(), 7U);    // (15, 7, 2)
  EXPECT_EQ(BchCode(4, 3).k(), 5U);    // (15, 5, 3)
  EXPECT_EQ(BchCode(5, 1).k(), 26U);   // (31, 26, 1)
  EXPECT_EQ(BchCode(5, 2).k(), 21U);   // (31, 21, 2)
  EXPECT_EQ(BchCode(5, 3).k(), 16U);   // (31, 16, 3)
  EXPECT_EQ(BchCode(6, 2).k(), 51U);   // (63, 51, 2)
  EXPECT_EQ(BchCode(7, 5).k(), 92U);   // (127, 92, 5)
  EXPECT_EQ(BchCode(8, 2).k(), 239U);  // (255, 239, 2)
}

TEST(BchCodeTest, DimensionHelperMatchesConstruction) {
  for (int m = 4; m <= 8; ++m) {
    for (int t = 1; t <= 5; ++t) {
      EXPECT_EQ(BchCode::dimension(m, t), BchCode(m, t).k()) << "m=" << m << " t=" << t;
    }
  }
}

TEST(BchCodeTest, DimensionReturnsZeroWhenVoid) {
  // t = 7 still leaves the (15, 1, 7) repetition-like code; 2t reaching n
  // pulls exponent 0 into the generator's root set and kills the code.
  EXPECT_EQ(BchCode::dimension(4, 7), 1U);
  EXPECT_EQ(BchCode::dimension(4, 8), 0U);
}

TEST(BchCodeTest, Bch15_7GeneratorPolynomial) {
  // g(x) = x^8 + x^7 + x^6 + x^4 + 1 for the (15, 7, 2) code.
  const BchCode code(4, 2);
  EXPECT_EQ(code.generator().to_string(), "100010111");
}

TEST(BchCodeTest, EncodeProducesCodeword) {
  const BchCode code(5, 3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BitVector msg = random_message(code.k(), seed);
    const BitVector cw = code.encode(msg);
    EXPECT_EQ(cw.size(), code.n());
    EXPECT_TRUE(code.is_codeword(cw));
    EXPECT_EQ(code.extract_message(cw), msg);
  }
}

TEST(BchCodeTest, EncodeRejectsWrongLength) {
  const BchCode code(5, 2);
  EXPECT_THROW(code.encode(BitVector(code.k() + 1)), std::invalid_argument);
}

TEST(BchCodeTest, DecodeNoErrorsIsIdentity) {
  const BchCode code(6, 3);
  const BitVector cw = code.encode(random_message(code.k(), 42));
  const auto decoded = code.decode(cw);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cw);
}

// Parameterized: decoding must succeed for every error weight up to t.
struct BchCase {
  int m;
  int t;
};

class BchCorrectionTest : public ::testing::TestWithParam<BchCase> {};

TEST_P(BchCorrectionTest, CorrectsUpToTErrors) {
  const auto [m, t] = GetParam();
  const BchCode code(m, t);
  for (int errors = 1; errors <= t; ++errors) {
    const BitVector msg = random_message(code.k(), static_cast<std::uint64_t>(errors));
    const BitVector cw = code.encode(msg);
    const BitVector noisy =
        with_random_errors(cw, errors, static_cast<std::uint64_t>(100 + errors));
    const auto decoded = code.decode(noisy);
    ASSERT_TRUE(decoded.has_value()) << "m=" << m << " t=" << t << " e=" << errors;
    EXPECT_EQ(*decoded, cw);
    EXPECT_EQ(code.extract_message(*decoded), msg);
  }
}

INSTANTIATE_TEST_SUITE_P(Codes, BchCorrectionTest,
                         ::testing::Values(BchCase{4, 1}, BchCase{4, 2}, BchCase{4, 3},
                                           BchCase{5, 3}, BchCase{6, 4}, BchCase{7, 5},
                                           BchCase{7, 10}, BchCase{8, 8}, BchCase{8, 18}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "t" +
                                  std::to_string(info.param.t);
                         });

// The syndrome rows pack t odd terms per position into 16-bit lanes, four to
// a word.  These codes cover one lane, a full last word (t = 4), partial last
// words (t = 5, 9, 10, 18) and full-width lanes at m = 14.
class BchSyndromeLayoutTest : public ::testing::TestWithParam<BchCase> {};

// True when S_j = sum over the set bits p of alpha^(j·p) is zero for every
// j = 1 .. 2t, read straight from the field.
bool oracle_is_codeword(const GF2m& field, int t, const BitVector& word) {
  for (std::int64_t j = 1; j <= 2 * t; ++j) {
    std::uint32_t s = 0;
    for (std::size_t p = 0; p < word.size(); ++p) {
      if (word.get(p)) s ^= field.alpha_pow(j * static_cast<std::int64_t>(p));
    }
    if (s != 0) return false;
  }
  return true;
}

TEST_P(BchSyndromeLayoutTest, RowsAgreeWithTheFieldOracle) {
  const auto [m, t] = GetParam();
  const BchCode code(m, t);
  const GF2m field(m);
  Xoshiro256 rng(static_cast<std::uint64_t>(100 * m + t));
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const BitVector cw = code.encode(random_message(code.k(), rng()));
    EXPECT_TRUE(code.is_codeword(cw));
    EXPECT_TRUE(oracle_is_codeword(field, t, cw));

    BitVector flipped = cw;
    flipped.flip(static_cast<std::size_t>(rng.bounded(cw.size())));
    EXPECT_FALSE(code.is_codeword(flipped));
    EXPECT_FALSE(oracle_is_codeword(field, t, flipped));

    BitVector noise(code.n());
    for (std::size_t i = 0; i < noise.size(); ++i) noise.set(i, rng.bernoulli(0.5));
    EXPECT_EQ(code.is_codeword(noise), oracle_is_codeword(field, t, noise));

    for (int errors = 1; errors <= t; ++errors) {
      const auto decoded = code.decode(with_random_errors(cw, errors, rng()));
      ASSERT_TRUE(decoded.has_value()) << "trial " << trial << " e=" << errors;
      EXPECT_EQ(*decoded, cw);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, BchSyndromeLayoutTest,
                         ::testing::Values(BchCase{3, 1}, BchCase{5, 4}, BchCase{6, 5},
                                           BchCase{7, 10}, BchCase{8, 18}, BchCase{10, 9},
                                           BchCase{14, 2}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "t" +
                                  std::to_string(info.param.t);
                         });

TEST(BchCodeTest, DetectsBeyondCapacityMostly) {
  // t+many errors: the decoder must either fail (preferred) or mis-decode to
  // a different codeword — never return a non-codeword.
  const BchCode code(6, 3);
  const BitVector cw = code.encode(random_message(code.k(), 7));
  int failures = 0;
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const BitVector noisy = with_random_errors(cw, 9, 500 + trial);
    const auto decoded = code.decode(noisy);
    if (!decoded.has_value()) {
      ++failures;
    } else {
      EXPECT_TRUE(code.is_codeword(*decoded));
    }
  }
  EXPECT_GT(failures, 25);  // overwhelming majority detected
}

TEST(BchCodeTest, DecodeRejectsWrongLength) {
  const BchCode code(5, 2);
  EXPECT_THROW(code.decode(BitVector(30)), std::invalid_argument);
  EXPECT_THROW((void)code.is_codeword(BitVector(32)), std::invalid_argument);
}

TEST(BchCodeTest, SingleBitErrorAnyPosition) {
  const BchCode code(5, 1);  // (31, 26, 1) Hamming-equivalent
  const BitVector cw = code.encode(random_message(code.k(), 3));
  for (std::size_t p = 0; p < code.n(); ++p) {
    BitVector noisy = cw;
    noisy.flip(p);
    const auto decoded = code.decode(noisy);
    ASSERT_TRUE(decoded.has_value()) << "position " << p;
    EXPECT_EQ(*decoded, cw);
  }
}

TEST(BchCodeTest, AllZeroAndAllOneMessages) {
  const BchCode code(6, 5);
  const BitVector zeros(code.k());
  BitVector ones(code.k());
  for (std::size_t i = 0; i < ones.size(); ++i) ones.set(i, true);
  for (const auto& msg : {zeros, ones}) {
    const BitVector cw = code.encode(msg);
    const BitVector noisy = with_random_errors(cw, 5, 9);
    const auto decoded = code.decode(noisy);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(code.extract_message(*decoded), msg);
  }
}

TEST(BchCodeTest, RejectsInvalidParameters) {
  EXPECT_THROW(BchCode(4, 0), std::invalid_argument);
  EXPECT_THROW(BchCode(4, 8), std::invalid_argument);  // empty code
}

TEST(BchCodeTest, LinearityOfCodewords) {
  const BchCode code(5, 2);
  const BitVector c1 = code.encode(random_message(code.k(), 11));
  const BitVector c2 = code.encode(random_message(code.k(), 12));
  EXPECT_TRUE(code.is_codeword(c1 ^ c2));
}

}  // namespace
}  // namespace aropuf
