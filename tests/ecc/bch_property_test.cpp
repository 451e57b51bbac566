// Randomized property sweep over the BCH codec: for arbitrary codes,
// messages, and error patterns, decoding within capability always restores
// the codeword, and decoding never fabricates a non-codeword.  For small
// codes an exhaustive oracle fixes decode() exactly: the unique codeword
// within distance t, or std::nullopt when there is none.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "ecc/bch.hpp"

namespace aropuf {
namespace {

struct SweepCase {
  int m;
  int t;
  std::uint64_t seed;
};

class BchPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BchPropertyTest, RandomizedCorrectionSweep) {
  const auto [m, t, seed] = GetParam();
  const BchCode code(m, t);
  Xoshiro256 rng(seed);

  for (int round = 0; round < 25; ++round) {
    BitVector msg(code.k());
    for (std::size_t i = 0; i < msg.size(); ++i) msg.set(i, rng.bernoulli(0.5));
    const BitVector cw = code.encode(msg);

    // Property 1: encoding is systematic and valid.
    ASSERT_TRUE(code.is_codeword(cw));
    ASSERT_EQ(code.extract_message(cw), msg);

    // Property 2: any error pattern of weight <= t is corrected.
    const auto weight = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(t) + 1));
    BitVector noisy = cw;
    std::set<std::uint64_t> positions;
    while (positions.size() < static_cast<std::size_t>(weight)) {
      positions.insert(rng.bounded(cw.size()));
    }
    for (const auto p : positions) noisy.flip(static_cast<std::size_t>(p));
    const auto decoded = code.decode(noisy);
    ASSERT_TRUE(decoded.has_value()) << "weight " << weight;
    ASSERT_EQ(*decoded, cw) << "weight " << weight;

    // Property 3: beyond-capability patterns never yield a non-codeword.
    BitVector heavy = cw;
    std::set<std::uint64_t> heavy_positions;
    const std::size_t heavy_weight = static_cast<std::size_t>(t) + 2 + rng.bounded(5);
    while (heavy_positions.size() < heavy_weight) {
      heavy_positions.insert(rng.bounded(cw.size()));
    }
    for (const auto p : heavy_positions) heavy.flip(static_cast<std::size_t>(p));
    const auto maybe = code.decode(heavy);
    if (maybe.has_value()) {
      EXPECT_TRUE(code.is_codeword(*maybe));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodeGrid, BchPropertyTest,
    ::testing::Values(SweepCase{4, 2, 1}, SweepCase{5, 2, 2}, SweepCase{5, 5, 3},
                      SweepCase{6, 3, 4}, SweepCase{6, 7, 5}, SweepCase{7, 4, 6},
                      SweepCase{7, 9, 7}, SweepCase{8, 6, 8}, SweepCase{8, 22, 9},
                      SweepCase{9, 12, 10}, SweepCase{7, 10, 11}),
    [](const auto& info) {
      std::string name = "m";
      name += std::to_string(info.param.m);
      name += "t";
      name += std::to_string(info.param.t);
      return name;
    });

struct SmallCode {
  int m;
  int t;
};

/// Every codeword of a code with n <= 31, as bit masks in ascending order:
/// the multiples u(x)·g(x), deg u < k, built from the generator alone (Gray
/// order: one shifted g(x) per step).
std::vector<std::uint32_t> all_codewords(const BchCode& code) {
  std::uint32_t g = 0;
  for (std::size_t i = 0; i < code.generator().size(); ++i) {
    if (code.generator().get(i)) g |= std::uint32_t{1} << i;
  }
  std::vector<std::uint32_t> words{0};
  std::uint32_t word = 0;
  for (std::uint32_t u = 1; u < (std::uint32_t{1} << code.k()); ++u) {
    word ^= g << std::countr_zero(u);
    words.push_back(word);
  }
  std::sort(words.begin(), words.end());
  return words;
}

/// The codewords within distance t of w, found by trying every error
/// pattern of weight <= t.
std::vector<std::uint32_t> codewords_within(std::uint32_t w, int n, int t,
                                            const std::vector<std::uint32_t>& codewords) {
  std::vector<std::uint32_t> hits;
  const auto visit = [&](const auto& self, std::uint32_t e, int from, int left) -> void {
    if (std::binary_search(codewords.begin(), codewords.end(), w ^ e)) hits.push_back(w ^ e);
    if (left == 0) return;
    for (int p = from; p < n; ++p) self(self, e | (std::uint32_t{1} << p), p + 1, left - 1);
  };
  visit(visit, 0, 0, t);
  return hits;
}

BitVector to_bits(std::uint32_t mask, int n) {
  BitVector v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.set(static_cast<std::size_t>(i), ((mask >> i) & 1U) != 0);
  return v;
}

class BchOracleTest : public ::testing::TestWithParam<SmallCode> {};

TEST_P(BchOracleTest, DecodesToTheUniqueCodewordWithinT) {
  const auto [m, t] = GetParam();
  const BchCode code(m, t);
  const auto n = static_cast<int>(code.n());
  const auto codewords = all_codewords(code);
  ASSERT_EQ(codewords.size(), std::size_t{1} << code.k());
  ASSERT_EQ(std::adjacent_find(codewords.begin(), codewords.end()), codewords.end());

  int corrected = 0;
  int rejected = 0;
  const auto check = [&](std::uint32_t w) {
    const auto hits = codewords_within(w, n, t, codewords);
    ASSERT_LE(hits.size(), 1U) << "design distance below 2t + 1";
    const auto decoded = code.decode(to_bits(w, n));
    if (hits.empty()) {
      EXPECT_FALSE(decoded.has_value()) << "word " << w;
      ++rejected;
    } else {
      ASSERT_TRUE(decoded.has_value()) << "word " << w;
      EXPECT_EQ(*decoded, to_bits(hits[0], n)) << "word " << w;
      ++corrected;
    }
  };
  Xoshiro256 rng(static_cast<std::uint64_t>(100 * m + t));
  for (int weight = 0; weight <= 2 * t + 2; ++weight) {
    for (int trial = 0; trial < 64; ++trial) {
      std::uint32_t error = 0;
      while (std::popcount(error) < weight) {
        error |= std::uint32_t{1} << rng.bounded(static_cast<std::uint64_t>(n));
      }
      check(codewords[rng.bounded(codewords.size())] ^ error);
    }
  }
  for (int trial = 0; trial < 512; ++trial) {
    check(static_cast<std::uint32_t>(rng.bounded(std::uint64_t{1} << n)));
  }
  EXPECT_GT(corrected, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(SmallCodes, BchOracleTest,
                         ::testing::Values(SmallCode{4, 2}, SmallCode{4, 3}, SmallCode{5, 3},
                                           SmallCode{5, 2}),
                         [](const auto& info) {
                           std::string name = "m";
                           name += std::to_string(info.param.m);
                           name += "t";
                           name += std::to_string(info.param.t);
                           return name;
                         });

// Dimension table property: k is non-increasing in t and bounded by n - m*t.
TEST(BchDimensionPropertyTest, SingletonAndMonotonicity) {
  for (int m = 4; m <= 10; ++m) {
    const std::size_t n = (std::size_t{1} << m) - 1;
    std::size_t prev_k = n;
    for (int t = 1; t <= 12; ++t) {
      const std::size_t k = BchCode::dimension(m, t);
      if (k == 0) break;
      EXPECT_LE(k, prev_k) << "m=" << m << " t=" << t;
      // Each of the t conjugate classes has at most m members (signed math:
      // the bound can go negative when m*t exceeds n).
      EXPECT_GE(static_cast<long>(k), static_cast<long>(n) - static_cast<long>(m) * t)
          << "m=" << m << " t=" << t;
      prev_k = k;
    }
  }
}

}  // namespace
}  // namespace aropuf
