#include "sim/scenarios.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "telemetry/metrics.hpp"

namespace aropuf {
namespace {

PopulationConfig small_pop() {
  PopulationConfig pop;
  pop.chips = 8;
  pop.seed = 7;
  return pop;
}

/// One population entry point.  Those that walk checkpoints take them from
/// the call; the sweeps bring three points of their own.
struct Scenario {
  const char* name;
  bool walks_checkpoints;
  std::uint64_t pool_passes;
  std::function<void(const PopulationConfig&, std::span<const double>)> run;
};

std::vector<Scenario> all_scenarios() {
  static const double temps[] = {-20.0, 25.0, 85.0};
  static const double vdds[] = {1.08, 1.2, 1.32};
  const PufConfig puf = PufConfig::aro(64);
  StressProfile oven = StressProfile::conventional_always_on();
  oven.stress_temperature = celsius(125.0);
  using Points = std::span<const double>;
  return {
      {"E1", true, 1,
       [=](const PopulationConfig& pop, Points cp) {
         (void)run_frequency_degradation(pop, puf, cp);
       }},
      {"E2", true, 1,
       [=](const PopulationConfig& pop, Points cp) { (void)run_aging_series(pop, puf, cp); }},
      {"E8", true, 1,
       [=](const PopulationConfig& pop, Points cp) {
         (void)run_aging_series_with_burnin(pop, puf, oven, years(1.0 / 12.0), cp);
       }},
      {"E14", true, 1,
       [=](const PopulationConfig& pop, Points cp) {
         (void)run_mission(pop, puf, MissionProfile::automotive(true), cp);
       }},
      {"E5", false, 1,
       [=](const PopulationConfig& pop, Points) { (void)run_temperature_sweep(pop, puf, temps); }},
      {"E6", false, 1,
       [=](const PopulationConfig& pop, Points) { (void)run_voltage_sweep(pop, puf, vdds); }},
      {"E10", false, 1,
       [=](const PopulationConfig& pop, Points) {
         (void)run_masking_study(pop, puf, /*full_corners=*/true, 3, 10.0);
       }},
      {"EOL", false, 1,
       [=](const PopulationConfig& pop, Points) { (void)measure_eol_ber(pop, puf, 10.0); }},
      // One pass builds and reads the dies, one maps the pairs and one
      // counts each bit position's ones.
      {"E3", false, 3,
       [=](const PopulationConfig& pop, Points) { (void)run_uniqueness(pop, puf); }},
  };
}

TEST(ScenariosTest, FrequencyDegradationShape) {
  const double checkpoints[] = {1.0, 5.0, 10.0};
  const auto series =
      run_frequency_degradation(small_pop(), PufConfig::conventional(64), checkpoints);
  ASSERT_EQ(series.years.size(), 3U);
  ASSERT_EQ(series.mean_freq_shift_percent.size(), 3U);
  // Degradation is positive and monotone in time.
  EXPECT_GT(series.mean_freq_shift_percent[0], 0.0);
  EXPECT_LT(series.mean_freq_shift_percent[0], series.mean_freq_shift_percent[1]);
  EXPECT_LT(series.mean_freq_shift_percent[1], series.mean_freq_shift_percent[2]);
}

TEST(ScenariosTest, AgingSeriesMonotoneAndOrdered) {
  const double checkpoints[] = {2.0, 10.0};
  const auto conv = run_aging_series(small_pop(), PufConfig::conventional(128), checkpoints);
  const auto aro = run_aging_series(small_pop(), PufConfig::aro(128), checkpoints);
  // More aging, more flips; ARO flips far less than conventional.
  EXPECT_LT(conv.mean_flip_percent[0], conv.mean_flip_percent[1]);
  EXPECT_LT(aro.mean_flip_percent[1], conv.mean_flip_percent[1] * 0.6);
  EXPECT_GE(conv.max_flip_percent[1], conv.mean_flip_percent[1]);
}

TEST(ScenariosTest, CheckpointsMustBeSorted) {
  // Bad checkpoints are rejected before any die is built or read.
  auto& registry = telemetry::MetricsRegistry::global();
  const double unsorted[] = {5.0, 1.0};
  const double negative[] = {-1.0};
  for (const Scenario& scenario : all_scenarios()) {
    if (!scenario.walks_checkpoints) continue;
    for (const std::span<const double> bad :
         {std::span<const double>(unsorted), std::span<const double>(negative)}) {
      const std::uint64_t chips = registry.counter("sim.chips_simulated").value();
      const std::uint64_t evaluations = registry.counter("puf.evaluations").value();
      EXPECT_THROW(scenario.run(small_pop(), bad), std::invalid_argument) << scenario.name;
      EXPECT_EQ(registry.counter("sim.chips_simulated").value(), chips) << scenario.name;
      EXPECT_EQ(registry.counter("puf.evaluations").value(), evaluations) << scenario.name;
    }
  }
  const double one[] = {1.0};
  EXPECT_NO_THROW(run_aging_series(small_pop(), PufConfig::aro(64),
                                   std::span<const double>(one, 1)));
}

TEST(ScenariosTest, PopulationNeedsAChip) {
  const double checkpoints[] = {1.0};
  for (const int chips : {0, -1}) {
    PopulationConfig pop = small_pop();
    pop.chips = chips;
    for (const Scenario& scenario : all_scenarios()) {
      EXPECT_THROW(scenario.run(pop, checkpoints), std::invalid_argument)
          << scenario.name << " with " << chips << " chips";
    }
    EXPECT_THROW((void)run_ecc_comparison_from_simulation(pop, CodeSearchConstraints{}),
                 std::invalid_argument)
        << chips << " chips";
  }
}

TEST(ScenariosTest, EachScenarioWalksEveryDieInOnePoolPass) {
  // Each die lives its whole life in one pool task, so the pass count does
  // not grow with the checkpoints or sweep points.
  auto& registry = telemetry::MetricsRegistry::global();
  const PopulationConfig pop = small_pop();
  const double checkpoints[] = {1.0, 5.0, 10.0};
  for (const Scenario& scenario : all_scenarios()) {
    registry.reset();
    scenario.run(pop, checkpoints);
    EXPECT_EQ(registry.counter("parallel.jobs").value(), scenario.pool_passes) << scenario.name;
    EXPECT_EQ(registry.counter("sim.chips_simulated").value(),
              static_cast<std::uint64_t>(pop.chips))
        << scenario.name;
  }
}

TEST(ScenariosTest, UniquenessOutputsAllMetrics) {
  const auto result = run_uniqueness(small_pop(), PufConfig::aro(128));
  EXPECT_EQ(result.uniqueness.stats.count(), 28U);  // C(8,2)
  EXPECT_GT(result.uniqueness.mean_percent(), 40.0);
  EXPECT_LT(result.uniqueness.mean_percent(), 60.0);
  EXPECT_GT(result.uniformity.mean(), 0.3);
  EXPECT_LT(result.uniformity.mean(), 0.7);
  EXPECT_EQ(result.aliasing.count(), 64U);  // bits
}

TEST(ScenariosTest, TemperatureSweepAnchoredAtNominal) {
  const double temps[] = {25.0, 85.0};
  const auto sweep = run_temperature_sweep(small_pop(), PufConfig::aro(128), temps);
  ASSERT_EQ(sweep.size(), 2U);
  // At the enrollment corner only measurement noise flips bits.
  EXPECT_LT(sweep[0].mean_ber_percent, 4.0);
  // Far from it, errors grow.
  EXPECT_GT(sweep[1].mean_ber_percent, sweep[0].mean_ber_percent);
  EXPECT_GE(sweep[1].max_ber_percent, sweep[1].mean_ber_percent);
}

TEST(ScenariosTest, VoltageSweepAnchoredAtNominal) {
  // Supply sensitivity of the ratioed comparison is second-order: the -10%
  // corner stays at the same percent-level noise floor as nominal (no strict
  // ordering — the effect is within measurement-noise variation).
  const double vdd[] = {1.2, 1.08};
  const auto sweep = run_voltage_sweep(small_pop(), PufConfig::aro(128), vdd);
  ASSERT_EQ(sweep.size(), 2U);
  EXPECT_LT(sweep[0].mean_ber_percent, 4.0);
  EXPECT_LT(sweep[1].mean_ber_percent, 6.0);
  EXPECT_GT(sweep[1].mean_ber_percent, 0.2 * sweep[0].mean_ber_percent);
}

TEST(ScenariosTest, EolBerStatsAreCoherent) {
  const auto stats = measure_eol_ber(small_pop(), PufConfig::conventional(128), 10.0);
  EXPECT_GT(stats.mean, 0.1);
  EXPECT_LT(stats.mean, 0.5);
  EXPECT_GE(stats.max, stats.mean);
  EXPECT_GT(stats.p90(), stats.mean);
  EXPECT_GT(stats.p95(), stats.p90());
}

TEST(ScenariosTest, EccComparisonFavorsAro) {
  const auto cmp = run_ecc_comparison(TechnologyParams::cmos90(), 0.35, 0.10,
                                      CodeSearchConstraints{});
  EXPECT_GT(cmp.area_ratio(), 3.0);
  EXPECT_LT(cmp.aro.scheme.raw_bits(), cmp.conventional.scheme.raw_bits());
}

TEST(ScenariosTest, EccComparisonThrowsWhenInfeasible) {
  CodeSearchConstraints cramped;
  cramped.repetition_options = {1};
  cramped.max_bch_t = 2;
  EXPECT_THROW((void)run_ecc_comparison(TechnologyParams::cmos90(), 0.35, 0.10, cramped),
               std::runtime_error);
}

TEST(ScenariosTest, ResultsAreSeedReproducible) {
  const double checkpoints[] = {10.0};
  const auto a = run_aging_series(small_pop(), PufConfig::aro(128), checkpoints);
  const auto b = run_aging_series(small_pop(), PufConfig::aro(128), checkpoints);
  EXPECT_DOUBLE_EQ(a.mean_flip_percent[0], b.mean_flip_percent[0]);
  PopulationConfig other = small_pop();
  other.seed = 8;
  const auto c = run_aging_series(other, PufConfig::aro(128), checkpoints);
  EXPECT_NE(a.mean_flip_percent[0], c.mean_flip_percent[0]);
}

}  // namespace
}  // namespace aropuf
