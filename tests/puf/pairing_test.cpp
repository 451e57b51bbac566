#include "puf/pairing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

namespace aropuf {
namespace {

TEST(PairingTest, AdjacentDedicatedPairsNeighbours) {
  const auto pairs = make_pairs(PairingStrategy::kAdjacentDedicated, 8);
  ASSERT_EQ(pairs.size(), 4U);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, static_cast<int>(2 * i));
    EXPECT_EQ(pairs[i].second, static_cast<int>(2 * i + 1));
  }
}

TEST(PairingTest, DistantDedicatedSpansHalfArray) {
  const auto pairs = make_pairs(PairingStrategy::kDistantDedicated, 8);
  ASSERT_EQ(pairs.size(), 4U);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].second - pairs[i].first, 4);
  }
}

TEST(PairingTest, ChainNeighborOverlaps) {
  const auto pairs = make_pairs(PairingStrategy::kChainNeighbor, 5);
  ASSERT_EQ(pairs.size(), 4U);
  for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].second, pairs[i + 1].first);
  }
}

TEST(PairingTest, RandomChallengeIsPerfectMatching) {
  const auto pairs = make_pairs(PairingStrategy::kRandomChallenge, 64, 99);
  ASSERT_EQ(pairs.size(), 32U);
  std::set<int> used;
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(used.insert(a).second) << "RO " << a << " reused";
    EXPECT_TRUE(used.insert(b).second) << "RO " << b << " reused";
    EXPECT_GE(a, 0);
    EXPECT_LT(b, 64);
  }
  EXPECT_EQ(used.size(), 64U);
}

TEST(PairingTest, RandomChallengeDependsOnSeed) {
  const auto a = make_pairs(PairingStrategy::kRandomChallenge, 64, 1);
  const auto b = make_pairs(PairingStrategy::kRandomChallenge, 64, 2);
  const auto a2 = make_pairs(PairingStrategy::kRandomChallenge, 64, 1);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
}

TEST(PairingTest, DedicatedStrategiesUseEveryRoOnce) {
  for (const auto strategy :
       {PairingStrategy::kAdjacentDedicated, PairingStrategy::kDistantDedicated}) {
    const auto pairs = make_pairs(strategy, 32);
    std::set<int> used;
    for (const auto& [a, b] : pairs) {
      used.insert(a);
      used.insert(b);
    }
    EXPECT_EQ(used.size(), 32U) << static_cast<int>(strategy);
  }
}

TEST(PairingTest, BitCountsMatchStrategy) {
  EXPECT_EQ(pairing_bits(PairingStrategy::kAdjacentDedicated, 256), 128U);
  EXPECT_EQ(pairing_bits(PairingStrategy::kDistantDedicated, 256), 128U);
  EXPECT_EQ(pairing_bits(PairingStrategy::kRandomChallenge, 256), 128U);
  EXPECT_EQ(pairing_bits(PairingStrategy::kChainNeighbor, 256), 255U);
}

TEST(PairingTest, RejectsOddRoCountForDedicated) {
  EXPECT_THROW(make_pairs(PairingStrategy::kAdjacentDedicated, 7), std::invalid_argument);
  EXPECT_THROW(make_pairs(PairingStrategy::kDistantDedicated, 7), std::invalid_argument);
  EXPECT_THROW(make_pairs(PairingStrategy::kRandomChallenge, 7), std::invalid_argument);
}

TEST(PairingTest, RejectsTooFewRos) {
  EXPECT_THROW(make_pairs(PairingStrategy::kChainNeighbor, 1), std::invalid_argument);
  EXPECT_THROW((void)pairing_bits(PairingStrategy::kChainNeighbor, 1), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
