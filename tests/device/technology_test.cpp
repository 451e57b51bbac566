#include "device/technology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace aropuf {
namespace {

TEST(TechnologyTest, FactoriesValidate) {
  EXPECT_NO_THROW(TechnologyParams::cmos90().validate());
  EXPECT_NO_THROW(TechnologyParams::cmos65().validate());
  EXPECT_NO_THROW(TechnologyParams::cmos45().validate());
}

TEST(TechnologyTest, FactoriesAreDistinctNodes) {
  const auto t90 = TechnologyParams::cmos90();
  const auto t65 = TechnologyParams::cmos65();
  const auto t45 = TechnologyParams::cmos45();
  EXPECT_EQ(t90.name, "cmos90");
  EXPECT_EQ(t65.name, "cmos65");
  EXPECT_EQ(t45.name, "cmos45");
  // Scaling trends: lower supply, faster gates, more mismatch.
  EXPECT_GT(t90.vdd_nominal, t65.vdd_nominal);
  EXPECT_GT(t65.vdd_nominal, t45.vdd_nominal);
  EXPECT_GT(t90.delay_k, t65.delay_k);
  EXPECT_LT(t90.sigma_vth_local, t45.sigma_vth_local);
}

TEST(TechnologyTest, ValidationCatchesBadParameters) {
  auto t = TechnologyParams::cmos90();
  t.vth_n = 1.5;  // above vdd
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.alpha = 2.5;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.delay_k = 0.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.nbti_recovery_fraction = 1.0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.counter_bits = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.sigma_vth_local = -1e-3;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  t = TechnologyParams::cmos90();
  t.mobility_temp_exp = 0.0;  // outside detmath::pow's y > 0
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(TechnologyTest, NominalFrequencyInPlausibleBand) {
  const auto tech = TechnologyParams::cmos90();
  const Hertz f13 = tech.nominal_ro_frequency(13);
  // 90 nm 13-stage RO: high hundreds of MHz to low GHz.
  EXPECT_GT(f13, 300e6);
  EXPECT_LT(f13, 3e9);
}

TEST(TechnologyTest, FrequencyFallsWithStageCount) {
  const auto tech = TechnologyParams::cmos90();
  EXPECT_GT(tech.nominal_ro_frequency(5), tech.nominal_ro_frequency(13));
  EXPECT_GT(tech.nominal_ro_frequency(13), tech.nominal_ro_frequency(21));
}

TEST(TechnologyTest, FrequencyScalesInverselyWithStages) {
  // Doubling the delay chain roughly halves the frequency (the NAND stage
  // makes it slightly off-exact).
  const auto tech = TechnologyParams::cmos90();
  const double ratio = tech.nominal_ro_frequency(7) / tech.nominal_ro_frequency(13);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.1);
}

TEST(TechnologyTest, FrequencyRejectsBadStageCounts) {
  const auto tech = TechnologyParams::cmos90();
  EXPECT_THROW((void)tech.nominal_ro_frequency(4), std::invalid_argument);
  EXPECT_THROW((void)tech.nominal_ro_frequency(1), std::invalid_argument);
}

TEST(TechnologyTest, SmallerNodesAreFaster) {
  EXPECT_GT(TechnologyParams::cmos45().nominal_ro_frequency(13),
            TechnologyParams::cmos90().nominal_ro_frequency(13));
}

}  // namespace
}  // namespace aropuf
