#include "puf/puf_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace aropuf {
namespace {

TEST(PufConfigTest, ConventionalFactoryShape) {
  const auto c = PufConfig::conventional();
  EXPECT_EQ(c.design, PufDesign::kConventional);
  EXPECT_EQ(c.pairing, PairingStrategy::kDistantDedicated);
  EXPECT_DOUBLE_EQ(c.lifetime_profile.oscillation_fraction, 1.0);
  EXPECT_EQ(c.response_bits(), 128U);
}

TEST(PufConfigTest, AroFactoryShape) {
  const auto c = PufConfig::aro();
  EXPECT_EQ(c.design, PufDesign::kAro);
  EXPECT_EQ(c.pairing, PairingStrategy::kAdjacentDedicated);
  // Gated: active a tiny fraction of the lifetime.
  EXPECT_LT(c.lifetime_profile.oscillation_fraction, 1e-4);
  EXPECT_GT(c.lifetime_profile.oscillation_fraction, 0.0);
  EXPECT_TRUE(c.lifetime_profile.recovery_enabled);
  EXPECT_EQ(c.response_bits(), 128U);
}

TEST(PufConfigTest, FactoriesScaleWithRoCount) {
  EXPECT_EQ(PufConfig::aro(512).response_bits(), 256U);
  EXPECT_EQ(PufConfig::conventional(64).response_bits(), 32U);
}

TEST(PufConfigTest, ValidationCatchesBadGeometry) {
  PufConfig c = PufConfig::aro();
  c.num_ros = 7;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = PufConfig::aro();
  c.stages = 4;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = PufConfig::aro();
  c.array_width = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = PufConfig::aro();
  c.measurement_window = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
