#include "sim/scenarios.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "metrics/uniformity.hpp"
#include "puf/masking.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

namespace {

/// Evaluation indices: 0 is reserved for the golden (enrollment) read; later
/// reads use distinct indices so their noise draws are independent.
constexpr std::uint64_t kGoldenEval = 0;

void require_checkpoints(std::span<const double> checkpoints) {
  ARO_REQUIRE(!checkpoints.empty(), "need at least one checkpoint");
  double previous_years = 0.0;
  for (const double y : checkpoints) {
    ARO_REQUIRE(y >= previous_years, "checkpoints must be non-negative and non-decreasing");
    previous_years = y;
  }
}

/// Runs `life(chip)` on every die of the population in one pool pass, one
/// task per die, and returns the results in chip order.  Task c builds die c
/// from the "chip"/c child fabric, the die make_population builds at index
/// c, so every value depends only on the die's own streams.
template <typename Life>
auto map_lifetimes(const PopulationConfig& pop, const PufConfig& puf, Life&& life) {
  ARO_REQUIRE(pop.chips >= 1, "population must have at least one chip");
  telemetry::MetricsRegistry::global().counter("sim.chips_simulated").add(
      static_cast<std::uint64_t>(pop.chips));
  const RngFabric fabric(pop.seed);
  return parallel_map_chips(static_cast<std::size_t>(pop.chips), [&](std::size_t c) {
    RoPuf chip(pop.tech, puf, fabric.child("chip", static_cast<std::uint64_t>(c)));
    return life(chip);
  });
}

/// Column `j` of the per-chip rows, accumulated serially in chip order so
/// the statistics are bit-identical at any thread count.
RunningStats column_stats(const std::vector<std::vector<double>>& rows, std::size_t j) {
  RunningStats stats;
  for (const std::vector<double>& row : rows) stats.add(row[j]);
  return stats;
}

AgingSeries flip_series(std::string label, std::span<const double> checkpoints,
                        const std::vector<std::vector<double>>& flip_percent) {
  AgingSeries series;
  series.label = std::move(label);
  for (std::size_t j = 0; j < checkpoints.size(); ++j) {
    const RunningStats flips = column_stats(flip_percent, j);
    series.years.push_back(checkpoints[j]);
    series.mean_flip_percent.push_back(flips.mean());
    series.max_flip_percent.push_back(flips.max());
  }
  return series;
}

}  // namespace

std::vector<double> flip_walk(RoPuf& chip, const BitVector& golden,
                              std::span<const double> checkpoints, const AgeStep& age) {
  const OperatingPoint op = chip.nominal_op();
  std::vector<double> flip_percent(checkpoints.size());
  double previous_years = 0.0;
  for (std::size_t j = 0; j < checkpoints.size(); ++j) {
    if (age) {
      age(chip, checkpoints[j] - previous_years);
    } else {
      chip.age_years(checkpoints[j] - previous_years);
    }
    previous_years = checkpoints[j];
    flip_percent[j] = fractional_hamming_distance(golden, chip.evaluate(op, j + 1)) * 100.0;
  }
  return flip_percent;
}

FrequencySeries run_frequency_degradation(const PopulationConfig& pop, const PufConfig& puf,
                                          std::span<const double> checkpoints) {
  require_checkpoints(checkpoints);
  const telemetry::StageTimer stage("E1.frequency_degradation[" + puf.label + "]");
  // Each die reports its per-RO shifts at every checkpoint; the reduction
  // runs serially in (chip, RO) order so the mean is bit-identical to a
  // serial run at any thread count.
  const auto shifts = map_lifetimes(pop, puf, [&](RoPuf& chip) {
    const OperatingPoint op = chip.nominal_op();
    const std::vector<double> fresh = chip.fresh_ro_frequencies(op);
    std::vector<std::vector<double>> s(checkpoints.size());
    double previous_years = 0.0;
    for (std::size_t j = 0; j < checkpoints.size(); ++j) {
      chip.age_years(checkpoints[j] - previous_years);
      previous_years = checkpoints[j];
      s[j] = chip.ro_frequencies(op);
      for (std::size_t r = 0; r < s[j].size(); ++r) {
        s[j][r] = (fresh[r] - s[j][r]) / fresh[r] * 100.0;
      }
    }
    return s;
  });

  FrequencySeries series;
  series.label = puf.label;
  for (std::size_t j = 0; j < checkpoints.size(); ++j) {
    RunningStats shift;
    for (const auto& chip_shifts : shifts) {
      for (const double s : chip_shifts[j]) shift.add(s);
    }
    series.years.push_back(checkpoints[j]);
    series.mean_freq_shift_percent.push_back(shift.mean());
  }
  return series;
}

AgingSeries run_aging_series(const PopulationConfig& pop, const PufConfig& puf,
                             std::span<const double> checkpoints) {
  require_checkpoints(checkpoints);
  const telemetry::StageTimer stage("E2.aging_series[" + puf.label + "]");
  return flip_series(puf.label, checkpoints, map_lifetimes(pop, puf, [&](RoPuf& chip) {
                       const BitVector golden = chip.evaluate(chip.nominal_op(), kGoldenEval);
                       return flip_walk(chip, golden, checkpoints);
                     }));
}

AgingSeries run_aging_series_with_burnin(const PopulationConfig& pop, const PufConfig& puf,
                                         const StressProfile& burnin_profile,
                                         Seconds burnin_duration,
                                         std::span<const double> checkpoints) {
  require_checkpoints(checkpoints);
  ARO_REQUIRE(burnin_duration >= 0.0, "burn-in duration must be non-negative");
  const telemetry::StageTimer stage("E8.aging_series_burnin[" + puf.label + "]");
  return flip_series(puf.label + " +burn-in", checkpoints,
                     map_lifetimes(pop, puf, [&](RoPuf& chip) {
                       chip.age(burnin_profile, burnin_duration);
                       const BitVector golden = chip.evaluate(chip.nominal_op(), kGoldenEval);
                       return flip_walk(chip, golden, checkpoints);
                     }));
}

Seconds MissionProfile::cycle_duration() const {
  Seconds total = 0.0;
  for (const auto& phase : cycle) total += phase.duration;
  return total;
}

void MissionProfile::validate() const {
  ARO_REQUIRE(!cycle.empty(), "mission needs at least one phase");
  for (const auto& phase : cycle) {
    phase.profile.validate();
    ARO_REQUIRE(phase.duration > 0.0, "mission phases need positive durations");
  }
}

MissionProfile MissionProfile::automotive(bool gated) {
  MissionProfile m;
  m.name = gated ? "automotive-gated" : "automotive-always-on";

  MissionPhase driving;
  driving.duration = 2.0 * 3600.0;
  driving.profile = gated ? StressProfile::aro_gated(20.0, 10e-3)
                          : StressProfile::conventional_always_on();
  driving.profile.stress_temperature = celsius(85.0);
  driving.profile.name = "engine-on";

  MissionPhase parked;
  parked.duration = 22.0 * 3600.0;
  parked.profile = gated ? StressProfile::aro_gated(0.0, 0.0)
                         : StressProfile::conventional_always_on();
  parked.profile.stress_temperature = celsius(15.0);
  parked.profile.name = "parked";

  m.cycle = {driving, parked};
  m.validate();
  return m;
}

AgingSeries run_mission(const PopulationConfig& pop, const PufConfig& puf,
                        const MissionProfile& mission,
                        std::span<const double> year_checkpoints) {
  mission.validate();
  require_checkpoints(year_checkpoints);
  const telemetry::StageTimer stage("E14.mission[" + mission.name + "]");
  // Cycles are daily-scale and lifetimes are years: advancing phase-by-phase
  // for every cycle would be millions of steps.  The aging state is additive
  // in (effective stress seconds, cycles), so we apply each phase once per
  // checkpoint interval with its total accumulated duration — exact for the
  // power-law models used here up to the documented stress-temperature
  // piecewise approximation.
  const Seconds cycle_duration = mission.cycle_duration();
  const AgeStep phases = [&](RoPuf& chip, double interval_years) {
    const double cycles_in_interval = years(interval_years) / cycle_duration;
    for (const auto& phase : mission.cycle) {
      chip.age(phase.profile, phase.duration * cycles_in_interval);
    }
  };
  return flip_series(puf.label + " @ " + mission.name, year_checkpoints,
                     map_lifetimes(pop, puf, [&](RoPuf& chip) {
                       const BitVector golden = chip.evaluate(chip.nominal_op(), kGoldenEval);
                       return flip_walk(chip, golden, year_checkpoints, phases);
                     }));
}

MaskingStudyResult run_masking_study(const PopulationConfig& pop, const PufConfig& puf,
                                     bool full_corners, int screening_repeats, double years) {
  ARO_REQUIRE(years >= 0.0, "years must be non-negative");
  const telemetry::StageTimer stage("E10.masking_study[" + puf.label + "]");
  const ScreeningConfig screening = full_corners
                                        ? ScreeningConfig::full_corners(pop.tech,
                                                                        screening_repeats)
                                        : ScreeningConfig::nominal_only(screening_repeats);

  struct ChipOutcome {
    double stable_fraction = 0.0;
    double raw_ber = 0.0;
    double masked_ber = 0.0;
    bool has_masked = false;
  };
  const auto outcomes = map_lifetimes(pop, puf, [&](RoPuf& chip) {
    const OperatingPoint op = chip.nominal_op();
    const StabilityMask mask = screen_stability(chip, screening);
    const BitVector golden = chip.evaluate(op, kGoldenEval);
    chip.age_years(years);
    const BitVector aged = chip.evaluate(op, 1);
    ChipOutcome out;
    out.stable_fraction = mask.stable_fraction();
    out.raw_ber = fractional_hamming_distance(golden, aged);
    if (mask.stable_count() > 0) {
      out.masked_ber =
          fractional_hamming_distance(apply_mask(golden, mask), apply_mask(aged, mask));
      out.has_masked = true;
    }
    return out;
  });

  RunningStats stable;
  RunningStats raw_ber;
  RunningStats masked_ber;
  for (const auto& out : outcomes) {
    stable.add(out.stable_fraction);
    raw_ber.add(out.raw_ber);
    if (out.has_masked) masked_ber.add(out.masked_ber);
  }
  MaskingStudyResult result;
  result.stable_fraction = stable.mean();
  result.unmasked_ber = raw_ber.mean();
  result.masked_ber = masked_ber.mean();
  return result;
}

UniquenessExperimentResult run_uniqueness(const PopulationConfig& pop, const PufConfig& puf) {
  ARO_REQUIRE(pop.chips >= 2, "uniqueness needs at least two chips");
  const telemetry::StageTimer stage("E3.uniqueness[" + puf.label + "]");
  const std::vector<BitVector> responses = map_lifetimes(
      pop, puf, [](RoPuf& chip) { return chip.evaluate(chip.nominal_op(), kGoldenEval); });

  UniquenessExperimentResult result;
  result.label = puf.label;
  result.uniqueness = compute_uniqueness(responses);
  result.uniformity = uniformity_stats(responses);
  result.aliasing = bit_aliasing_stats(responses);
  return result;
}

namespace {

std::vector<SweepPoint> run_environment_sweep(const PopulationConfig& pop, const PufConfig& puf,
                                              std::span<const double> points,
                                              bool sweep_temperature) {
  ARO_REQUIRE(!points.empty(), "need at least one sweep point");
  const telemetry::StageTimer stage(
      std::string(sweep_temperature ? "E5.temperature_sweep[" : "E6.voltage_sweep[") +
      puf.label + "]");
  const OperatingPoint nominal = nominal_operating_point(pop.tech);
  std::vector<OperatingPoint> corners(points.size(), nominal);
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (sweep_temperature) {
      corners[k].temp = celsius(points[k]);
    } else {
      corners[k].vdd = points[k];
    }
  }

  const auto ber_percent = map_lifetimes(pop, puf, [&](RoPuf& chip) {
    const BitVector golden = chip.evaluate(nominal, kGoldenEval);
    std::vector<double> ber(corners.size());
    for (std::size_t k = 0; k < corners.size(); ++k) {
      ber[k] = fractional_hamming_distance(golden, chip.evaluate(corners[k], k + 1)) * 100.0;
    }
    return ber;
  });

  std::vector<SweepPoint> sweep;
  sweep.reserve(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const RunningStats ber = column_stats(ber_percent, k);
    sweep.push_back(SweepPoint{points[k], ber.mean(), ber.max()});
  }
  return sweep;
}

}  // namespace

std::vector<SweepPoint> run_temperature_sweep(const PopulationConfig& pop, const PufConfig& puf,
                                              std::span<const double> celsius_points) {
  return run_environment_sweep(pop, puf, celsius_points, /*sweep_temperature=*/true);
}

std::vector<SweepPoint> run_voltage_sweep(const PopulationConfig& pop, const PufConfig& puf,
                                          std::span<const double> vdd_points) {
  return run_environment_sweep(pop, puf, vdd_points, /*sweep_temperature=*/false);
}

BerStats measure_eol_ber(const PopulationConfig& pop, const PufConfig& puf,
                         double years_of_use) {
  ARO_REQUIRE(years_of_use >= 0.0, "years must be non-negative");
  const telemetry::StageTimer stage("eol_ber[" + puf.label + "]");
  const auto chip_ber = map_lifetimes(pop, puf, [&](RoPuf& chip) {
    const OperatingPoint op = chip.nominal_op();
    const BitVector golden = chip.evaluate(op, kGoldenEval);
    chip.age_years(years_of_use);
    const BitVector aged = chip.evaluate(op, 1);
    return fractional_hamming_distance(golden, aged);
  });
  RunningStats ber;
  for (const double b : chip_ber) ber.add(b);
  return BerStats{ber.mean(), ber.stddev(), ber.max()};
}

EccComparison run_ecc_comparison(const TechnologyParams& tech, double conventional_ber,
                                 double aro_ber, const CodeSearchConstraints& constraints) {
  const telemetry::StageTimer stage("E7.ecc_comparison");
  EccComparison cmp;
  cmp.conventional_ber = conventional_ber;
  cmp.aro_ber = aro_ber;
  const auto conv = find_min_area_scheme(tech, conventional_ber, constraints);
  const auto aro = find_min_area_scheme(tech, aro_ber, constraints);
  if (!conv.has_value()) {
    throw std::runtime_error("no ECC scheme meets the target for the conventional BER");
  }
  if (!aro.has_value()) {
    throw std::runtime_error("no ECC scheme meets the target for the ARO BER");
  }
  cmp.conventional = *conv;
  cmp.aro = *aro;
  return cmp;
}

EccComparison run_ecc_comparison_from_simulation(const PopulationConfig& pop,
                                                 const CodeSearchConstraints& constraints,
                                                 double years) {
  const BerStats ber_conv = measure_eol_ber(pop, PufConfig::conventional(), years);
  const BerStats ber_aro = measure_eol_ber(pop, PufConfig::aro(), years);
  return run_ecc_comparison(pop.tech, ber_conv.p90(), ber_aro.p90(), constraints);
}

}  // namespace aropuf
