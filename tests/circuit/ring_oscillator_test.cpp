#include "circuit/ring_oscillator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/statistics.hpp"
#include "device/technology.hpp"

namespace aropuf {
namespace {

class RingOscillatorTest : public ::testing::Test {
 protected:
  RingOscillator make_ro(std::uint64_t die_seed = 1, std::uint64_t dev_seed = 2,
                         int stages = 13, Position pos = {0.0, 0.0}) const {
    const DieVariation die(tech_, die_seed);
    Xoshiro256 rng(dev_seed);
    return RingOscillator(tech_, stages, pos, die.static_offset(pos), die, rng);
  }

  TechnologyParams tech_ = TechnologyParams::cmos90();
  OperatingPoint nominal_{tech_.vdd_nominal, tech_.temp_nominal};
  AgingModel aging_{tech_};
};

TEST_F(RingOscillatorTest, ConstructionPopulatesStages) {
  const RingOscillator ro = make_ro();
  EXPECT_EQ(ro.num_stages(), 13);
  ASSERT_EQ(ro.stages().size(), 13U);
  for (const auto& stage : ro.stages()) {
    EXPECT_EQ(stage.pmos.type, DeviceType::kPmos);
    EXPECT_EQ(stage.nmos.type, DeviceType::kNmos);
    EXPECT_GT(stage.pmos.vth_fresh, 0.1);
    EXPECT_GT(stage.nmos.vth_fresh, 0.1);
  }
}

TEST_F(RingOscillatorTest, RejectsEvenOrTinyStageCounts) {
  const DieVariation die(tech_, 1);
  Xoshiro256 rng(2);
  EXPECT_THROW(RingOscillator(tech_, 12, {0, 0}, 0.0, die, rng), std::invalid_argument);
  EXPECT_THROW(RingOscillator(tech_, 1, {0, 0}, 0.0, die, rng), std::invalid_argument);
}

TEST_F(RingOscillatorTest, NormalsAreTakenStageByStagePmosFirst) {
  const DieVariation die(tech_, 1);
  Xoshiro256 rng(2);
  Xoshiro256 calls = rng;
  const RingOscillator drawn(tech_, 13, {0, 0}, 0.0, die, rng);
  std::vector<double> normals(RingOscillator::kNormalsPerStage * 13);
  for (double& g : normals) g = calls.gaussian();
  EXPECT_EQ(rng(), calls());
  const RingOscillator given(tech_, 13, {0, 0}, 0.0, die, normals);
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (std::size_t s = 0; s < 13; ++s) {
    for (const auto member : {&RingOscillator::Stage::pmos, &RingOscillator::Stage::nmos}) {
      const Transistor& a = drawn.stages()[s].*member;
      const Transistor& b = given.stages()[s].*member;
      EXPECT_TRUE(same_bits(a.vth_fresh, b.vth_fresh) && same_bits(a.vth_tempco, b.vth_tempco) &&
                  same_bits(a.nbti_sensitivity, b.nbti_sensitivity) &&
                  same_bits(a.hci_sensitivity, b.hci_sensitivity))
          << "stage " << s;
    }
  }
  // Per device: local mismatch, tempco, NBTI, HCI; the NMOS after the PMOS.
  const Transistor& nmos1 = given.stages()[1].nmos;
  EXPECT_TRUE(same_bits(nmos1.vth_tempco,
                        tech_.vth_tempco * (1.0 + tech_.vth_tempco_mismatch_rel * normals[13])));
  EXPECT_TRUE(same_bits(nmos1.nbti_sensitivity,
                        std::max(1.0 + tech_.nbti_sigma_rel * normals[14], 0.05)));
  normals.pop_back();
  EXPECT_THROW(RingOscillator(tech_, 13, {0, 0}, 0.0, die, normals), std::invalid_argument);
}

TEST_F(RingOscillatorTest, FrequencyNearNominal) {
  const RingOscillator ro = make_ro();
  const Hertz f = ro.frequency(nominal_);
  const Hertz f_nom = tech_.nominal_ro_frequency(13);
  EXPECT_GT(f, f_nom * 0.7);
  EXPECT_LT(f, f_nom * 1.3);
}

TEST_F(RingOscillatorTest, DifferentDevicesDifferentFrequencies) {
  const RingOscillator a = make_ro(1, 2);
  const RingOscillator b = make_ro(1, 3);
  EXPECT_NE(a.frequency(nominal_), b.frequency(nominal_));
}

TEST_F(RingOscillatorTest, MismatchSpreadIsPercentLevel) {
  // Per-RO sigma(f)/f from 15 mV local mismatch averaged over 26 devices:
  // fractions of a percent, well below 2 %.
  const DieVariation die(tech_, 9);
  RunningStats stats;
  for (std::uint64_t s = 0; s < 400; ++s) {
    Xoshiro256 rng(s);
    const RingOscillator ro(tech_, 13, {0.0, 0.0}, die.static_offset({0.0, 0.0}), die, rng);
    stats.add(ro.frequency(nominal_));
  }
  const double rel_sigma = stats.stddev() / stats.mean();
  EXPECT_GT(rel_sigma, 0.001);
  EXPECT_LT(rel_sigma, 0.02);
}

TEST_F(RingOscillatorTest, FreshFrequencyIgnoresAging) {
  RingOscillator ro = make_ro();
  const Hertz fresh_before = ro.fresh_frequency(nominal_);
  ro.apply_stress(aging_, StressProfile::conventional_always_on(), years(5.0));
  EXPECT_DOUBLE_EQ(ro.fresh_frequency(nominal_), fresh_before);
  EXPECT_LT(ro.frequency(nominal_), fresh_before);
}

TEST_F(RingOscillatorTest, AgingSlowsMonotonically) {
  RingOscillator ro = make_ro();
  double prev = ro.frequency(nominal_);
  for (int year = 0; year < 5; ++year) {
    ro.apply_stress(aging_, StressProfile::conventional_always_on(), years(1.0));
    const double f = ro.frequency(nominal_);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST_F(RingOscillatorTest, TenYearDegradationInPaperBand) {
  RingOscillator ro = make_ro();
  const double fresh = ro.frequency(nominal_);
  ro.apply_stress(aging_, StressProfile::conventional_always_on(), years(10.0));
  const double shift = (fresh - ro.frequency(nominal_)) / fresh;
  EXPECT_GT(shift, 0.02);
  EXPECT_LT(shift, 0.20);
}

TEST_F(RingOscillatorTest, GatedStressBarelyDegrades) {
  RingOscillator gated = make_ro();
  RingOscillator continuous = make_ro();
  const double fresh = gated.frequency(nominal_);
  gated.apply_stress(aging_, StressProfile::aro_gated(20.0, 10e-3), years(10.0));
  continuous.apply_stress(aging_, StressProfile::conventional_always_on(), years(10.0));
  const double gated_shift = (fresh - gated.frequency(nominal_)) / fresh;
  const double cont_shift = (fresh - continuous.frequency(nominal_)) / fresh;
  EXPECT_LT(gated_shift, cont_shift * 0.4);
}

TEST_F(RingOscillatorTest, ResetAgingRestoresFreshBehaviour) {
  RingOscillator ro = make_ro();
  const double fresh = ro.frequency(nominal_);
  ro.apply_stress(aging_, StressProfile::conventional_always_on(), years(10.0));
  ro.reset_aging();
  EXPECT_DOUBLE_EQ(ro.frequency(nominal_), fresh);
  EXPECT_DOUBLE_EQ(ro.stress().elapsed, 0.0);
}

TEST_F(RingOscillatorTest, StressStateAccumulates) {
  RingOscillator ro = make_ro();
  ro.apply_stress(aging_, StressProfile::conventional_always_on(), 100.0);
  ro.apply_stress(aging_, StressProfile::conventional_always_on(), 100.0);
  EXPECT_DOUBLE_EQ(ro.stress().elapsed, 200.0);
  EXPECT_GT(ro.stress().switching_cycles, 1e10);
}

TEST_F(RingOscillatorTest, HotterRunsSlowerAtNominalVdd) {
  const RingOscillator ro = make_ro();
  const OperatingPoint hot{tech_.vdd_nominal, celsius(85.0)};
  EXPECT_LT(ro.frequency(hot), ro.frequency(nominal_));
}

TEST_F(RingOscillatorTest, LowerVddRunsSlower) {
  const RingOscillator ro = make_ro();
  const OperatingPoint low{tech_.vdd_nominal * 0.9, tech_.temp_nominal};
  EXPECT_LT(ro.frequency(low), ro.frequency(nominal_));
}

// Stage-count sweep: frequency ordering must hold for any RO size.
class RoStageSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(RoStageSweepTest, FrequencyWithinNominalBand) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  const DieVariation die(tech, 3);
  Xoshiro256 rng(4);
  const RingOscillator ro(tech, GetParam(), {0.0, 0.0}, die.static_offset({0.0, 0.0}), die, rng);
  const OperatingPoint op{tech.vdd_nominal, tech.temp_nominal};
  const double f_nom = tech.nominal_ro_frequency(GetParam());
  EXPECT_GT(ro.frequency(op), f_nom * 0.7);
  EXPECT_LT(ro.frequency(op), f_nom * 1.3);
}

INSTANTIATE_TEST_SUITE_P(StageCounts, RoStageSweepTest, ::testing::Values(3, 5, 7, 13, 21, 31));

}  // namespace
}  // namespace aropuf
