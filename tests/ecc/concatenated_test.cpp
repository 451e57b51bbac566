#include "ecc/concatenated.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "keygen/sha256.hpp"

namespace aropuf {
namespace {

ConcatenatedScheme small_scheme() {
  ConcatenatedScheme s;
  s.repetition = 3;
  s.bch_m = 5;
  s.bch_t = 3;  // (31, 16, 3)
  s.key_bits = 40;
  return s;
}

BitVector random_key(int bits, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  BitVector k(static_cast<std::size_t>(bits));
  for (std::size_t i = 0; i < k.size(); ++i) k.set(i, rng.bernoulli(0.5));
  return k;
}

TEST(ConcatenatedSchemeTest, DerivedQuantities) {
  const auto s = small_scheme();
  EXPECT_EQ(s.bch_n(), 31U);
  EXPECT_EQ(s.bch_k(), 16U);
  EXPECT_EQ(s.blocks(), 3U);  // ceil(40 / 16)
  EXPECT_EQ(s.raw_bits(), 3U * 31U * 3U);
}

TEST(ConcatenatedSchemeTest, ValidationCatchesBadSchemes) {
  auto s = small_scheme();
  s.repetition = 4;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = small_scheme();
  s.key_bits = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = small_scheme();
  s.bch_t = 7;  // (31, 1, 7): k = 1 still exists
  EXPECT_NO_THROW(s.validate());
  s.bch_t = 16;  // 2t wraps past n: generator consumes every root, k = 0
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ConcatenatedSchemeTest, FailureProbabilityMonotoneInBer) {
  const auto s = small_scheme();
  double prev = -1.0;
  for (const double p : {0.0, 0.01, 0.05, 0.1, 0.2, 0.3}) {
    const double fail = s.key_failure_probability(p);
    EXPECT_GE(fail, prev);
    prev = fail;
  }
  EXPECT_DOUBLE_EQ(s.key_failure_probability(0.0), 0.0);
}

TEST(ConcatenatedSchemeTest, StrongerOuterCodeFailsLess) {
  auto weak = small_scheme();
  auto strong = small_scheme();
  strong.bch_t = 5;
  EXPECT_LT(strong.block_failure_probability(0.1), weak.block_failure_probability(0.1));
}

TEST(ConcatenatedSchemeTest, MoreBlocksFailMore) {
  auto one = small_scheme();
  one.key_bits = 16;  // 1 block
  auto many = small_scheme();
  many.key_bits = 160;  // 10 blocks
  EXPECT_GT(many.key_failure_probability(0.08), one.key_failure_probability(0.08));
}

TEST(ConcatenatedCodeTest, RoundTripNoErrors) {
  const ConcatenatedCode code(small_scheme());
  const BitVector key = random_key(40, 1);
  const BitVector encoded = code.encode(key);
  EXPECT_EQ(encoded.size(), code.scheme().raw_bits());
  const auto decoded = code.decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, key);
}

TEST(ConcatenatedCodeTest, CorrectsScatteredErrors) {
  const ConcatenatedCode code(small_scheme());
  const BitVector key = random_key(40, 2);
  BitVector noisy = code.encode(key);
  // Flip ~4 % of raw bits: well within rep-3 + BCH t=3 capability.
  Xoshiro256 rng(3);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    if (rng.bernoulli(0.04)) noisy.flip(i);
  }
  const auto decoded = code.decode(noisy);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, key);
}

TEST(ConcatenatedCodeTest, FailsCleanlyUnderHeavyNoise) {
  const ConcatenatedCode code(small_scheme());
  const BitVector key = random_key(40, 4);
  BitVector noisy = code.encode(key);
  Xoshiro256 rng(5);
  int clean_failures = 0;
  int wrong_key = 0;
  for (int trial = 0; trial < 20; ++trial) {
    BitVector heavy = noisy;
    for (std::size_t i = 0; i < heavy.size(); ++i) {
      if (rng.bernoulli(0.35)) heavy.flip(i);
    }
    const auto decoded = code.decode(heavy);
    if (!decoded.has_value()) {
      ++clean_failures;
    } else if (*decoded != key) {
      ++wrong_key;
    }
  }
  EXPECT_GT(clean_failures + wrong_key, 15);
}

TEST(ConcatenatedCodeTest, EncodeRejectsWrongKeyLength) {
  const ConcatenatedCode code(small_scheme());
  EXPECT_THROW(code.encode(BitVector(41)), std::invalid_argument);
}

TEST(ConcatenatedCodeTest, DecodeRejectsWrongLength) {
  const ConcatenatedCode code(small_scheme());
  EXPECT_THROW(code.decode(BitVector(100)), std::invalid_argument);
}

TEST(ConcatenatedCodeTest, PaperSized128BitKey) {
  ConcatenatedScheme s;
  s.repetition = 3;
  s.bch_m = 8;
  s.bch_t = 18;  // (255, 131, 18)
  s.key_bits = 128;
  const ConcatenatedCode code(s);
  EXPECT_EQ(s.blocks(), 1U);
  const BitVector key = random_key(128, 6);
  BitVector noisy = code.encode(key);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    if (rng.bernoulli(0.05)) noisy.flip(i);
  }
  const auto decoded = code.decode(noisy);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, key);
}

// rep-3 + BCH(127, 64, 10) with a 128-bit key: the key-mode scheme.
ConcatenatedScheme key_mode_scheme() {
  ConcatenatedScheme s;
  s.repetition = 3;
  s.bch_m = 7;
  s.bch_t = 10;
  s.key_bits = 128;
  return s;
}

// rep-5 + BCH(255, 131, 18): 18 odd-syndrome lanes, so four full row words
// and a half-full fifth, and vote windows that straddle words.
ConcatenatedScheme rep5_bch255_scheme() {
  ConcatenatedScheme s;
  s.repetition = 5;
  s.bch_m = 8;
  s.bch_t = 18;
  s.key_bits = 128;
  return s;
}

struct DecodeSweep {
  std::string digest;  ///< SHA-256 over every outcome: failure, or the key
  int decoded = 0;
};

// A seeded sweep of `trials` words: every tenth is uniform noise, the rest
// are encoded random keys with each raw bit flipped at `raw_ber`.
DecodeSweep decode_sweep(const ConcatenatedCode& code, std::uint64_t seed, double raw_ber,
                         int trials) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> outcomes;
  DecodeSweep sweep;
  for (int trial = 0; trial < trials; ++trial) {
    BitVector word(code.raw_bits());
    if (trial % 10 == 9) {
      for (std::size_t i = 0; i < word.size(); ++i) word.set(i, rng.bernoulli(0.5));
    } else {
      word = code.encode(random_key(code.scheme().key_bits, rng()));
      for (std::size_t i = 0; i < word.size(); ++i) {
        if (rng.bernoulli(raw_ber)) word.flip(i);
      }
    }
    const auto decoded = code.decode(word);
    outcomes.push_back(decoded.has_value() ? 1 : 0);
    if (decoded.has_value()) {
      ++sweep.decoded;
      const auto bytes = decoded->to_bytes();
      outcomes.insert(outcomes.end(), bytes.begin(), bytes.end());
    }
  }
  sweep.digest = Sha256::to_hex(Sha256::hash(outcomes));
  return sweep;
}

TEST(ConcatenatedCodeTest, PaperSchemeDecodeDigestIsPinned) {
  // The key-mode scheme at the ARO 10-year raw BER of 7.9 %.  The digest was
  // recorded with the original per-bit decoder, so any decoder rewrite must
  // reproduce it bit for bit.
  const ConcatenatedCode code(key_mode_scheme());
  ASSERT_EQ(code.blocks(), 2U);
  ASSERT_EQ(code.raw_bits(), 762U);
  const DecodeSweep sweep = decode_sweep(code, 79, 0.079, 600);
  EXPECT_GT(sweep.decoded, 500);
  EXPECT_LT(sweep.decoded, 600);
  EXPECT_EQ(sweep.digest, "85be373f208dd289ab33e5cfad234678f17401043f3f0c7d4bc3216c43810dc5");
}

TEST(ConcatenatedCodeTest, Rep5Bch255DecodeDigestIsPinned) {
  // rep-5 + BCH(255, 131, 18) at a raw BER of 20 %: about 5.8 % of the voted
  // bits are wrong, so some blocks carry more than t errors and fail.
  // Recorded with the per-term syndrome walk and the per-bit vote.
  const ConcatenatedCode code(rep5_bch255_scheme());
  ASSERT_EQ(code.blocks(), 1U);
  ASSERT_EQ(code.raw_bits(), 1275U);
  const DecodeSweep sweep = decode_sweep(code, 255, 0.2, 600);
  EXPECT_GT(sweep.decoded, 300);
  EXPECT_LT(sweep.decoded, 540);
  EXPECT_EQ(sweep.digest, "4d7019acc323413784915f2e5672344e58ee08898c3a327d6c85cdf29f813502");
}

TEST(ConcatenatedCodeTest, PaperSchemeEncodeDigestIsPinned) {
  // encode(key) for 200 seeded keys under each scheme, recorded with the
  // per-bit shift-register encoder and the per-bit concatenation.
  const std::vector<std::pair<ConcatenatedScheme, std::string>> pinned{
      {key_mode_scheme(), "f1fc0eace94bcf4fd130bd33d09b12adab5c41fc3b4d9e9fdc8c5d2739fbd72f"},
      {rep5_bch255_scheme(), "29f3456c3af6b61d8fd5fdc7c72c78bce8642ebf89a13b6e5abb8fcf437ca6d3"},
  };
  for (const auto& [scheme, digest] : pinned) {
    const ConcatenatedCode code(scheme);
    Xoshiro256 rng(200);
    std::vector<std::uint8_t> codewords;
    for (int i = 0; i < 200; ++i) {
      const auto bytes = code.encode(random_key(scheme.key_bits, rng())).to_bytes();
      codewords.insert(codewords.end(), bytes.begin(), bytes.end());
    }
    EXPECT_EQ(Sha256::to_hex(Sha256::hash(codewords)), digest) << "r=" << scheme.repetition;
  }
}

}  // namespace
}  // namespace aropuf
