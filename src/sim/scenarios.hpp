// Canned experiment scenarios — the shared engine behind the bench binaries
// (bench/bench_e1 .. e9), the calibration tests, and the examples.
//
// Each function is a pure Monte Carlo routine: (config, seed) → results.
// Bench binaries format the results as the paper's tables; calibration
// tests assert the headline bands on the same numbers.
//
// Every population scenario runs one pool task per die for the die's whole
// life: the task builds die c (the die make_population builds at index c),
// takes its golden read, walks it through every checkpoint or sweep point
// and returns the per-chip values, which the caller reduces serially in
// chip order.  No population stays resident, and inputs are checked before
// any die is built.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "device/technology.hpp"
#include "ecc/code_search.hpp"
#include "metrics/uniqueness.hpp"
#include "puf/puf_config.hpp"

namespace aropuf {

class RoPuf;

/// Shared Monte Carlo population setup.
struct PopulationConfig {
  TechnologyParams tech = TechnologyParams::cmos90();
  int chips = 40;
  std::uint64_t seed = 2014;
};

// --- E1: frequency degradation over time -----------------------------------

struct FrequencySeries {
  std::string label;
  std::vector<double> years;
  /// Mean relative frequency degradation (%) across all ROs and chips.
  std::vector<double> mean_freq_shift_percent;
};

[[nodiscard]] FrequencySeries run_frequency_degradation(const PopulationConfig& pop,
                                                        const PufConfig& puf,
                                                        std::span<const double> checkpoints);

// --- E2: bit flips vs years of aging ----------------------------------------

struct AgingSeries {
  std::string label;
  std::vector<double> years;
  std::vector<double> mean_flip_percent;  ///< mean over chips
  std::vector<double> max_flip_percent;   ///< worst chip
};

[[nodiscard]] AgingSeries run_aging_series(const PopulationConfig& pop, const PufConfig& puf,
                                           std::span<const double> checkpoints);

/// Advances a die by `years` of use, the step between two checkpoints.
using AgeStep = std::function<void(RoPuf& chip, double years)>;

/// One die's E2 walk, shared by E2, E8, E14 and the shard study: ages `chip`
/// to each checkpoint in turn (through `age`, or RoPuf::age_years when `age`
/// is empty) and re-reads it at the nominal corner with evaluation index 1,
/// 2, ...  Returns the percent of bits flipped against `golden` at each
/// checkpoint.
[[nodiscard]] std::vector<double> flip_walk(RoPuf& chip, const BitVector& golden,
                                            std::span<const double> checkpoints,
                                            const AgeStep& age = {});

/// Burn-in variant: chips are pre-aged under `burnin_profile` for
/// `burnin_duration` *before* the golden response is enrolled.  The t^(1/6)
/// NBTI law front-loads damage, so spending the steep early segment before
/// enrollment stabilizes the remaining lifetime (the paper's future-work
/// direction; quantified in the E8 ablation).
[[nodiscard]] AgingSeries run_aging_series_with_burnin(const PopulationConfig& pop,
                                                       const PufConfig& puf,
                                                       const StressProfile& burnin_profile,
                                                       Seconds burnin_duration,
                                                       std::span<const double> checkpoints);

// --- E3/E4: uniqueness, uniformity, bit-aliasing -----------------------------

struct UniquenessExperimentResult {
  std::string label;
  UniquenessResult uniqueness;
  RunningStats uniformity;       ///< per-chip ones-fraction
  RunningStats aliasing;         ///< per-bit-position ones-fraction over chips
};

[[nodiscard]] UniquenessExperimentResult run_uniqueness(const PopulationConfig& pop,
                                                        const PufConfig& puf);

// --- E5/E6: environment sweeps ----------------------------------------------

struct SweepPoint {
  double value = 0.0;             ///< swept quantity (°C or V)
  double mean_ber_percent = 0.0;  ///< vs. the nominal-corner golden response
  double max_ber_percent = 0.0;
};

[[nodiscard]] std::vector<SweepPoint> run_temperature_sweep(const PopulationConfig& pop,
                                                            const PufConfig& puf,
                                                            std::span<const double> celsius_points);

[[nodiscard]] std::vector<SweepPoint> run_voltage_sweep(const PopulationConfig& pop,
                                                        const PufConfig& puf,
                                                        std::span<const double> vdd_points);

// --- E7: ECC / area comparison ------------------------------------------------

struct EccComparison {
  CodeSearchResult conventional;
  CodeSearchResult aro;
  double conventional_ber = 0.0;
  double aro_ber = 0.0;
  /// Total-area ratio conventional / ARO (the paper's ~24x).
  [[nodiscard]] double area_ratio() const {
    return conventional.area.total_ge() / aro.area.total_ge();
  }
};

/// Runs the min-area code search for both designs at the given raw BERs.
/// Throws std::runtime_error if either search fails.
[[nodiscard]] EccComparison run_ecc_comparison(const TechnologyParams& tech,
                                               double conventional_ber, double aro_ber,
                                               const CodeSearchConstraints& constraints);

/// Convenience: measures both designs' 10-year BER with the standard
/// populations, then runs the comparison at each design's 90th-percentile
/// chip BER — the provisioning point when the worst 10 % of chips are
/// binned out at manufacturing test, the standard yield assumption for PUF
/// key macros and the regime where the paper's ~24x Table-E7 ratio lives.
[[nodiscard]] EccComparison run_ecc_comparison_from_simulation(
    const PopulationConfig& pop, const CodeSearchConstraints& constraints, double years = 10.0);

// --- E14: mission profiles -----------------------------------------------------

/// One phase of a mission: a stress profile applied for a duration.
struct MissionPhase {
  StressProfile profile;
  Seconds duration = 0.0;
};

/// A repeating sequence of phases (e.g. automotive: cold mornings, hot
/// engine-on hours, parked nights), cycled until the requested lifetime.
struct MissionProfile {
  std::string name;
  std::vector<MissionPhase> cycle;

  [[nodiscard]] Seconds cycle_duration() const;
  void validate() const;

  /// Automotive-flavoured mission for a given design's usage style:
  /// 2 h/day of 85 C engine-on operation, 22 h/day parked at 15 C.
  /// `gated` selects whether the PUF is enable-gated (ARO) or always on.
  static MissionProfile automotive(bool gated);
};

/// Ages the population through repeated mission cycles, evaluating flips at
/// each checkpoint (golden enrolled fresh, nominal corner).
[[nodiscard]] AgingSeries run_mission(const PopulationConfig& pop, const PufConfig& puf,
                                      const MissionProfile& mission,
                                      std::span<const double> year_checkpoints);

// --- E10: stability screening (dark-bit masking) -----------------------------

struct MaskingStudyResult {
  /// Mean fraction of bits surviving screening.
  double stable_fraction = 0.0;
  /// Mean end-of-life BER on the raw (unmasked) response.
  double unmasked_ber = 0.0;
  /// Mean end-of-life BER restricted to screened-stable bits.
  double masked_ber = 0.0;
};

/// Screens each chip at enrollment with `screening_repeats` nominal-corner
/// re-reads (plus hot/cold/low/high-VDD corners when `full_corners`), then
/// ages `years` and compares masked vs unmasked error rates.
[[nodiscard]] MaskingStudyResult run_masking_study(const PopulationConfig& pop,
                                                   const PufConfig& puf, bool full_corners,
                                                   int screening_repeats, double years);

struct BerStats {
  double mean = 0.0;
  double stddev = 0.0;
  double max = 0.0;
  /// Gaussian 90th percentile: mean + 1.282 sigma (provisioning BER with
  /// 10 % test-time yield binning).
  [[nodiscard]] double p90() const { return mean + 1.282 * stddev; }
  /// Gaussian 95th percentile (no-binning provisioning).
  [[nodiscard]] double p95() const { return mean + 1.645 * stddev; }
};

/// End-of-life per-chip flip-fraction statistics for one design.
[[nodiscard]] BerStats measure_eol_ber(const PopulationConfig& pop, const PufConfig& puf,
                                       double years_of_use);

}  // namespace aropuf
