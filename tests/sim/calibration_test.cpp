// Calibration tests: assert that the simulation reproduces the ARO-PUF
// paper's headline numbers within the documented bands (DESIGN.md §5).
//
// These are the reproduction's acceptance tests.  The 30-chip cases carry
// the paper's bands, generous enough to absorb one small population's Monte
// Carlo noise.  The Converged* cases pin the model's converged headlines on
// a 400-chip population: each band is the mean +- 4 sd of an 8-seed x
// 400-chip ensemble (seeds 1-8, rounded outward to 0.01 pp), so a physics
// regression of a fraction of a point fails there even when it stays inside
// the paper's band.
#include <gtest/gtest.h>

#include "sim/scenarios.hpp"

namespace aropuf {
namespace {

PopulationConfig paper_pop() {
  PopulationConfig pop;
  pop.chips = 30;
  pop.seed = 2014;  // DATE 2014
  return pop;
}

class CalibrationTest : public ::testing::Test {
 protected:
  PopulationConfig pop_ = paper_pop();
};

PopulationConfig converged_pop() {
  PopulationConfig pop = paper_pop();
  pop.chips = 400;
  return pop;
}

double converged_ten_year_flips(const PufConfig& puf) {
  const double checkpoints[] = {10.0};
  return run_aging_series(converged_pop(), puf, checkpoints).mean_flip_percent[0];
}

double converged_inter_chip_hd(const PufConfig& puf) {
  return run_uniqueness(converged_pop(), puf).uniqueness.mean_percent();
}

// Ensemble: mean 32.350 %, sd 0.274.
TEST(ConvergedCalibrationTest, ConventionalTenYearFlips) {
  const double flips = converged_ten_year_flips(PufConfig::conventional());
  EXPECT_GT(flips, 31.25);
  EXPECT_LT(flips, 33.45);
}

// Ensemble: mean 7.228 %, sd 0.053.
TEST(ConvergedCalibrationTest, AroTenYearFlips) {
  const double flips = converged_ten_year_flips(PufConfig::aro());
  EXPECT_GT(flips, 7.01);
  EXPECT_LT(flips, 7.45);
}

// Ensemble: mean 45.381 %, sd 0.418.
TEST(ConvergedCalibrationTest, ConventionalInterChipHd) {
  const double hd = converged_inter_chip_hd(PufConfig::conventional());
  EXPECT_GT(hd, 43.70);
  EXPECT_LT(hd, 47.06);
}

// Ensemble: mean 49.978 %, sd 0.026.
TEST(ConvergedCalibrationTest, AroInterChipHd) {
  const double hd = converged_inter_chip_hd(PufConfig::aro());
  EXPECT_GT(hd, 49.87);
  EXPECT_LT(hd, 50.09);
}

TEST_F(CalibrationTest, ConventionalTenYearFlipsNearPaper32Percent) {
  const double checkpoints[] = {10.0};
  const auto series = run_aging_series(pop_, PufConfig::conventional(), checkpoints);
  EXPECT_GT(series.mean_flip_percent[0], 25.0);
  EXPECT_LT(series.mean_flip_percent[0], 40.0);
}

TEST_F(CalibrationTest, AroTenYearFlipsNearPaper7_7Percent) {
  const double checkpoints[] = {10.0};
  const auto series = run_aging_series(pop_, PufConfig::aro(), checkpoints);
  EXPECT_GT(series.mean_flip_percent[0], 4.0);
  EXPECT_LT(series.mean_flip_percent[0], 12.0);
}

TEST_F(CalibrationTest, AroBeatsConventionalByPaperFactor) {
  // Paper: 32 % vs 7.7 % — a ~4x gap.  Accept 2.5x .. 8x.
  const double checkpoints[] = {10.0};
  const auto conv = run_aging_series(pop_, PufConfig::conventional(), checkpoints);
  const auto aro = run_aging_series(pop_, PufConfig::aro(), checkpoints);
  const double factor = conv.mean_flip_percent[0] / aro.mean_flip_percent[0];
  EXPECT_GT(factor, 2.5);
  EXPECT_LT(factor, 8.0);
}

TEST_F(CalibrationTest, ConventionalInterChipHdNearPaper45Percent) {
  const auto result = run_uniqueness(pop_, PufConfig::conventional());
  EXPECT_GT(result.uniqueness.mean_percent(), 40.0);
  EXPECT_LT(result.uniqueness.mean_percent(), 47.5);
}

TEST_F(CalibrationTest, AroInterChipHdNearPaper49_67Percent) {
  const auto result = run_uniqueness(pop_, PufConfig::aro());
  EXPECT_GT(result.uniqueness.mean_percent(), 48.5);
  EXPECT_LT(result.uniqueness.mean_percent(), 51.5);
}

TEST_F(CalibrationTest, AroUniquenessBeatsConventional) {
  const auto conv = run_uniqueness(pop_, PufConfig::conventional());
  const auto aro = run_uniqueness(pop_, PufConfig::aro());
  EXPECT_GT(aro.uniqueness.mean_percent(), conv.uniqueness.mean_percent());
}

TEST_F(CalibrationTest, FreshNoiseFloorIsPercentLevel) {
  // Enrollment-temperature re-measurement: ~1-2 % intra-chip HD.
  const double checkpoints[] = {0.0};
  const auto series = run_aging_series(pop_, PufConfig::aro(), checkpoints);
  EXPECT_LT(series.mean_flip_percent[0], 3.0);
}

TEST_F(CalibrationTest, ConventionalFrequencyDegradationBand) {
  // 10 years of continuous stress: mid-single-digit to ~15 % frequency loss.
  const double checkpoints[] = {10.0};
  const auto series = run_frequency_degradation(pop_, PufConfig::conventional(), checkpoints);
  EXPECT_GT(series.mean_freq_shift_percent[0], 3.0);
  EXPECT_LT(series.mean_freq_shift_percent[0], 16.0);
}

TEST_F(CalibrationTest, AroFrequencyDegradationNegligible) {
  const double checkpoints[] = {10.0};
  const auto series = run_frequency_degradation(pop_, PufConfig::aro(), checkpoints);
  EXPECT_LT(series.mean_freq_shift_percent[0], 2.0);
}

TEST_F(CalibrationTest, EccAreaRatioNearPaper24x) {
  // The paper's ~24x for a 128-bit key at the provisioning regime; accept
  // 12x .. 45x (the ratio is steep in the conventional design's tail BER).
  const auto cmp = run_ecc_comparison_from_simulation(pop_, CodeSearchConstraints{});
  EXPECT_GT(cmp.area_ratio(), 12.0);
  EXPECT_LT(cmp.area_ratio(), 45.0);
}

}  // namespace
}  // namespace aropuf
