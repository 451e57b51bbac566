#include "device/aging.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "device/technology.hpp"

namespace aropuf {
namespace {

/// AgingModel::accumulate as it was written per RO before AgingStep, kept
/// verbatim as the oracle the step must reproduce bit for bit.
StressState per_ro_accumulate(const AgingModel& model, const StressState& state,
                              const StressProfile& profile, Seconds duration, Hertz f_osc) {
  StressState next = state;
  next.elapsed += duration;
  next.nbti_effective +=
      model.nbti().temperature_weight(profile.stress_temperature) *
      model.nbti().effective_stress(duration, profile.nbti_duty, profile.recovery_enabled);
  next.switching_cycles += model.hci().temperature_weight(profile.stress_temperature) * f_osc *
                           duration * profile.oscillation_fraction;
  return next;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class AgingModelTest : public ::testing::Test {
 protected:
  TechnologyParams tech_ = TechnologyParams::cmos90();
  AgingModel model_{tech_};
};

TEST_F(AgingModelTest, FreshStateHasNoShifts) {
  const auto shifts = model_.shifts(StressState{});
  EXPECT_DOUBLE_EQ(shifts.nbti, 0.0);
  EXPECT_DOUBLE_EQ(shifts.hci, 0.0);
}

TEST_F(AgingModelTest, AccumulateAdvancesAllFields) {
  const auto profile = StressProfile::conventional_always_on();
  const StressState s = model_.accumulate(StressState{}, profile, 1000.0, 1e9);
  EXPECT_DOUBLE_EQ(s.elapsed, 1000.0);
  EXPECT_GT(s.nbti_effective, 0.0);
  // Cycles are stored nominal-temperature-equivalent.
  const double hci_weight = model_.hci().temperature_weight(profile.stress_temperature);
  EXPECT_NEAR(s.switching_cycles, hci_weight * 1e12, 1e6);
}

TEST_F(AgingModelTest, AccumulateIsAdditive) {
  const auto profile = StressProfile::conventional_always_on();
  StressState once = model_.accumulate(StressState{}, profile, 2000.0, 1e9);
  StressState twice = model_.accumulate(StressState{}, profile, 1000.0, 1e9);
  twice = model_.accumulate(twice, profile, 1000.0, 1e9);
  EXPECT_NEAR(once.elapsed, twice.elapsed, 1e-9);
  EXPECT_NEAR(once.nbti_effective, twice.nbti_effective, 1e-6);
  EXPECT_NEAR(once.switching_cycles, twice.switching_cycles, 1.0);
}

TEST_F(AgingModelTest, GatedProfileAccumulatesLessOfEverything) {
  const auto conv = StressProfile::conventional_always_on();
  const auto gated = StressProfile::aro_gated(20.0, 10e-3);
  const StressState sc = model_.accumulate(StressState{}, conv, years(1.0), 1e9);
  const StressState sg = model_.accumulate(StressState{}, gated, years(1.0), 1e9);
  EXPECT_LT(sg.nbti_effective, sc.nbti_effective * 1e-4);
  EXPECT_LT(sg.switching_cycles, sc.switching_cycles * 1e-4);
}

TEST_F(AgingModelTest, StaticIdleGetsNoHciButFullNbti) {
  const auto profile = StressProfile::static_enabled_idle();
  const StressState s = model_.accumulate(StressState{}, profile, years(1.0), 1e9);
  EXPECT_DOUBLE_EQ(s.switching_cycles, 0.0);
  EXPECT_GT(s.nbti_effective, 0.0);
  // No recovery: effective stress is elapsed * duty, temperature-weighted
  // into nominal-equivalent seconds.
  const double w = model_.nbti().temperature_weight(profile.stress_temperature);
  EXPECT_NEAR(s.nbti_effective, w * years(1.0) * 0.5, w * 10.0);
}

TEST_F(AgingModelTest, ShiftsGrowWithAccumulatedStress) {
  const auto profile = StressProfile::conventional_always_on();
  StressState s = StressState{};
  double prev_nbti = -1.0;
  double prev_hci = -1.0;
  for (int year = 0; year < 5; ++year) {
    s = model_.accumulate(s, profile, years(1.0), 1e9);
    const auto shifts = model_.shifts(s);
    EXPECT_GT(shifts.nbti, prev_nbti);
    EXPECT_GT(shifts.hci, prev_hci);
    prev_nbti = shifts.nbti;
    prev_hci = shifts.hci;
  }
}

TEST_F(AgingModelTest, SublinearGrowthInTime) {
  // Both mechanisms saturate: the second 5 years add less than the first 5.
  const auto profile = StressProfile::conventional_always_on();
  const StressState s5 = model_.accumulate(StressState{}, profile, years(5.0), 1e9);
  const StressState s10 = model_.accumulate(s5, profile, years(5.0), 1e9);
  const auto sh5 = model_.shifts(s5);
  const auto sh10 = model_.shifts(s10);
  EXPECT_LT(sh10.nbti - sh5.nbti, sh5.nbti);
  EXPECT_LT(sh10.hci - sh5.hci, sh5.hci);
}

TEST_F(AgingModelTest, OneStepPerDieMatchesThePerRoFormulaBitwise) {
  // 1,000 steps of a 256-RO die under mixed profiles and durations, one
  // AgingStep per step as RoPuf::age uses it.  RO 0 is reset every seventh
  // step, so one step also advances a state that left the die's.
  StressProfile hot = StressProfile::conventional_always_on();
  hot.stress_temperature = celsius(125.0);
  const StressProfile profiles[] = {StressProfile::conventional_always_on(),
                                    StressProfile::aro_gated(20.0, 10e-3),
                                    StressProfile::static_enabled_idle(), hot};
  Xoshiro256 rng(3000);
  std::vector<double> f_osc(256);
  for (double& f : f_osc) f = rng.uniform(0.8e9, 1.2e9);
  std::vector<StressState> states(f_osc.size());
  std::size_t mismatches = 0;
  for (int step_index = 0; step_index < 1000; ++step_index) {
    const StressProfile& profile = profiles[step_index % 4];
    const Seconds duration = rng.uniform(0.0, years(2.0));
    if (step_index % 7 == 0) states[0] = StressState{};
    AgingStep step(model_, profile, duration);
    for (std::size_t i = 0; i < states.size(); ++i) {
      const StressState expected =
          per_ro_accumulate(model_, states[i], profile, duration, f_osc[i]);
      states[i] = step.advance(states[i], f_osc[i]);
      const AgingShifts shifts = step.model().shifts(states[i]);
      const AgingShifts expected_shifts = model_.shifts(expected);
      if (!same_bits(states[i].elapsed, expected.elapsed) ||
          !same_bits(states[i].nbti_effective, expected.nbti_effective) ||
          !same_bits(states[i].switching_cycles, expected.switching_cycles) ||
          !same_bits(shifts.nbti, expected_shifts.nbti) ||
          !same_bits(shifts.hci, expected_shifts.hci)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0U);
  // accumulate() is the same step applied once.
  const StressState once = model_.accumulate(states[9], hot, years(3.0), f_osc[9]);
  const StressState oracle = per_ro_accumulate(model_, states[9], hot, years(3.0), f_osc[9]);
  EXPECT_TRUE(same_bits(once.nbti_effective, oracle.nbti_effective));
  EXPECT_TRUE(same_bits(once.switching_cycles, oracle.switching_cycles));
}

TEST_F(AgingModelTest, RejectsBadInputs) {
  const auto profile = StressProfile::conventional_always_on();
  EXPECT_THROW((void)model_.accumulate(StressState{}, profile, -1.0, 1e9), std::invalid_argument);
  EXPECT_THROW((void)model_.accumulate(StressState{}, profile, 1.0, -1e9), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
