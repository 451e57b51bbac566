#include "circuit/measurement.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "circuit/ring_oscillator.hpp"
#include "common/statistics.hpp"
#include "device/technology.hpp"

namespace aropuf {
namespace {

class MeasurementTest : public ::testing::Test {
 protected:
  RingOscillator make_ro(std::uint64_t dev_seed = 2) const {
    const DieVariation die(tech_, 1);
    Xoshiro256 rng(dev_seed);
    return RingOscillator(tech_, 13, {0.0, 0.0}, die.static_offset({0.0, 0.0}), die, rng);
  }

  TechnologyParams tech_ = TechnologyParams::cmos90();
  OperatingPoint nominal_{tech_.vdd_nominal, tech_.temp_nominal};
};

TEST_F(MeasurementTest, CountTracksExpectedValue) {
  const FrequencyCounter counter(tech_, 20e-6);
  const RingOscillator ro = make_ro();
  const double expected = counter.expected_count(ro.frequency(nominal_));
  Xoshiro256 noise(3);
  RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    stats.add(static_cast<double>(counter.measure_frequency(ro.frequency(nominal_), noise)));
  }
  EXPECT_NEAR(stats.mean(), expected, expected * 1e-3);
}

TEST_F(MeasurementTest, NoiseScaleMatchesModel) {
  const FrequencyCounter counter(tech_, 20e-6);
  const RingOscillator ro = make_ro();
  const double expected = counter.expected_count(ro.frequency(nominal_));
  Xoshiro256 noise(5);
  RunningStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.add(static_cast<double>(counter.measure_frequency(ro.frequency(nominal_), noise)));
  }
  // sigma = sqrt((lf * N)^2 + jitter^2 * N) plus quantization.
  const double lf = tech_.noise_lowfreq_rel * expected;
  const double jitter = tech_.jitter_cycle_rel * std::sqrt(expected);
  const double predicted = std::sqrt(lf * lf + jitter * jitter + 1.0 / 12.0);
  EXPECT_NEAR(stats.stddev(), predicted, predicted * 0.15);
}

TEST_F(MeasurementTest, CounterSaturatesAtWidth) {
  TechnologyParams tech = tech_;
  tech.counter_bits = 8;  // max 255
  const FrequencyCounter counter(tech, 20e-6);
  EXPECT_EQ(counter.max_count(), 255U);
  const RingOscillator ro = make_ro();
  Xoshiro256 noise(7);
  // ~1 GHz for 20 us is tens of thousands of cycles: must clamp to 255.
  EXPECT_EQ(counter.measure_frequency(ro.frequency(nominal_), noise), 255U);
}

TEST_F(MeasurementTest, SixteenBitCounterFitsDefaultWindow) {
  const FrequencyCounter counter(tech_, 20e-6);
  const RingOscillator ro = make_ro();
  const double expected = counter.expected_count(ro.frequency(nominal_));
  EXPECT_LT(expected, static_cast<double>(counter.max_count()));
  EXPECT_GT(expected, 1000.0);  // enough resolution for percent-level diffs
}

TEST_F(MeasurementTest, LongerWindowMoreCounts) {
  const FrequencyCounter short_counter(tech_, 10e-6);
  const FrequencyCounter long_counter(tech_, 40e-6);
  const RingOscillator ro = make_ro();
  Xoshiro256 n1(9);
  Xoshiro256 n2(9);
  const Hertz f = ro.frequency(nominal_);
  EXPECT_GT(long_counter.measure_frequency(f, n2), short_counter.measure_frequency(f, n1));
}

TEST_F(MeasurementTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(FrequencyCounter(tech_, 0.0), std::invalid_argument);
  EXPECT_THROW(FrequencyCounter(tech_, -1e-6), std::invalid_argument);
}

TEST_F(MeasurementTest, CompareCountsConvention) {
  EXPECT_TRUE(compare_counts(10, 9));
  EXPECT_FALSE(compare_counts(9, 10));
  EXPECT_FALSE(compare_counts(7, 7));  // ties resolve to 0
}

TEST_F(MeasurementTest, FasterRoWinsComparisonOnAverage) {
  const FrequencyCounter counter(tech_, 20e-6);
  const RingOscillator a = make_ro(2);
  const RingOscillator b = make_ro(3);
  const bool a_truly_faster = a.frequency(nominal_) > b.frequency(nominal_);
  Xoshiro256 noise(11);
  int a_wins = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const auto ca = counter.measure_frequency(a.frequency(nominal_), noise);
    const auto cb = counter.measure_frequency(b.frequency(nominal_), noise);
    if (compare_counts(ca, cb)) ++a_wins;
  }
  if (a_truly_faster) {
    EXPECT_GT(a_wins, kTrials / 2);
  } else {
    EXPECT_LT(a_wins, kTrials / 2);
  }
}

}  // namespace
}  // namespace aropuf
