#include "attack/order_attack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "puf/ro_puf.hpp"

namespace aropuf {
namespace {

TEST(OrderAttackTest, StartsKnowingNothing) {
  const OrderAttack attack(8);
  EXPECT_DOUBLE_EQ(attack.coverage(), 0.0);
  EXPECT_FALSE(attack.predict(0, 1).has_value());
}

TEST(OrderAttackTest, DirectObservationIsRemembered) {
  OrderAttack attack(8);
  attack.observe(2, 5, true);
  ASSERT_TRUE(attack.predict(2, 5).has_value());
  EXPECT_TRUE(*attack.predict(2, 5));
  ASSERT_TRUE(attack.predict(5, 2).has_value());
  EXPECT_FALSE(*attack.predict(5, 2));
  EXPECT_FALSE(attack.predict(2, 3).has_value());
}

TEST(OrderAttackTest, TransitivityPropagates) {
  OrderAttack attack(8);
  attack.observe(0, 1, true);   // 0 > 1
  attack.observe(1, 2, true);   // 1 > 2
  attack.observe(3, 2, false);  // 2 > 3
  ASSERT_TRUE(attack.predict(0, 3).has_value());
  EXPECT_TRUE(*attack.predict(0, 3));
  EXPECT_TRUE(*attack.predict(0, 2));
  EXPECT_FALSE(*attack.predict(3, 1));
}

TEST(OrderAttackTest, TransitivityAcrossLateJoin) {
  // Two chains merged by a later edge must close through both sides.
  OrderAttack attack(16);
  attack.observe(0, 1, true);
  attack.observe(1, 2, true);
  attack.observe(10, 11, true);
  attack.observe(11, 12, true);
  EXPECT_FALSE(attack.predict(0, 12).has_value());
  attack.observe(2, 10, true);  // join the chains
  ASSERT_TRUE(attack.predict(0, 12).has_value());
  EXPECT_TRUE(*attack.predict(0, 12));
  EXPECT_FALSE(*attack.predict(12, 0));
}

TEST(OrderAttackTest, ContradictionsAreDiscarded) {
  OrderAttack attack(4);
  attack.observe(0, 1, true);
  attack.observe(1, 2, true);
  // Claims 2 > 0, contradicting the closure: must be ignored.
  attack.observe(0, 2, false);
  ASSERT_TRUE(attack.predict(0, 2).has_value());
  EXPECT_TRUE(*attack.predict(0, 2));
  EXPECT_EQ(attack.observations(), 3U);
}

TEST(OrderAttackTest, FullChainDeterminesEverything) {
  constexpr int kN = 32;
  OrderAttack attack(kN);
  for (int i = 0; i + 1 < kN; ++i) attack.observe(i, i + 1, true);
  EXPECT_DOUBLE_EQ(attack.coverage(), 1.0);
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) {
      ASSERT_TRUE(attack.predict(a, b).has_value());
      EXPECT_TRUE(*attack.predict(a, b));
    }
  }
}

TEST(OrderAttackTest, CoverageGrowsMonotonically) {
  OrderAttack attack(64);
  Xoshiro256 rng(3);
  double prev = 0.0;
  for (int step = 0; step < 200; ++step) {
    const int a = static_cast<int>(rng.bounded(64));
    int b = static_cast<int>(rng.bounded(63));
    if (b >= a) ++b;
    attack.observe(a, b, a < b);  // consistent order: identity ranking
    const double cov = attack.coverage();
    EXPECT_GE(cov, prev);
    prev = cov;
  }
  // 200 random edges over 64 nodes close roughly a third of all pairs.
  EXPECT_GT(prev, 0.25);
}

TEST(OrderAttackTest, LearnsARealPufFromRandomCrps) {
  // The security punchline: a few hundred noisy CRPs from a 64-RO PUF
  // predict the majority of the unseen challenge space.
  const TechnologyParams tech = TechnologyParams::cmos90();
  PufConfig cfg = PufConfig::aro(64);
  cfg.pairing = PairingStrategy::kRandomChallenge;
  const RoPuf chip(tech, cfg, RngFabric(12).child("chip", 0));
  const auto op = chip.nominal_op();

  OrderAttack attack(64);
  Xoshiro256 challenge_rng(99);
  const FrequencyCounter counter(tech, cfg.measurement_window);
  const std::vector<double> freqs = chip.ro_frequencies(op);
  for (int crp = 0; crp < 400; ++crp) {
    const int a = static_cast<int>(challenge_rng.bounded(64));
    int b = static_cast<int>(challenge_rng.bounded(63));
    if (b >= a) ++b;
    Xoshiro256 noise(challenge_rng());
    const auto ca = counter.measure_frequency(freqs[static_cast<std::size_t>(a)], noise);
    const auto cb = counter.measure_frequency(freqs[static_cast<std::size_t>(b)], noise);
    attack.observe(a, b, compare_counts(ca, cb));
  }

  // Evaluate on ALL pairs against the true (noiseless) order.
  int predicted = 0;
  int correct = 0;
  int total = 0;
  for (int a = 0; a < 64; ++a) {
    for (int b = a + 1; b < 64; ++b) {
      ++total;
      const auto p = attack.predict(a, b);
      if (!p.has_value()) continue;
      ++predicted;
      const bool truth =
          freqs[static_cast<std::size_t>(a)] > freqs[static_cast<std::size_t>(b)];
      if (*p == truth) ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(predicted) / total, 0.6);
  EXPECT_GT(static_cast<double>(correct) / predicted, 0.95);
}

TEST(OrderAttackTest, RejectsBadArguments) {
  OrderAttack attack(8);
  EXPECT_THROW(attack.observe(0, 8, true), std::invalid_argument);
  EXPECT_THROW(attack.observe(3, 3, true), std::invalid_argument);
  EXPECT_THROW((void)attack.predict(-1, 2), std::invalid_argument);
  EXPECT_THROW(OrderAttack(1), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
